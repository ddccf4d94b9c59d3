#include "net/transport.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "net/bandwidth.hpp"

namespace dsud {

void ClientChannel::bindAccounting(SiteId site, BandwidthMeter* meter,
                                   obs::MetricsRegistry* metrics) {
  site_ = site;
  meter_ = meter;
  if (metrics != nullptr) {
    const std::string id = std::to_string(site);
    framesOut_ = &metrics->counter(
        obs::labeled("dsud_transport_frames_total", {{"site", id},
                                                     {"dir", "out"}}));
    framesIn_ = &metrics->counter(
        obs::labeled("dsud_transport_frames_total", {{"site", id},
                                                     {"dir", "in"}}));
    bytesOut_ = &metrics->counter(
        obs::labeled("dsud_transport_bytes_total", {{"site", id},
                                                    {"dir", "out"}}));
    bytesIn_ = &metrics->counter(
        obs::labeled("dsud_transport_bytes_total", {{"site", id},
                                                    {"dir", "in"}}));
  } else {
    framesOut_ = framesIn_ = bytesOut_ = bytesIn_ = nullptr;
  }
}

void ClientChannel::send(const Frame& request) {
  if (parked_) throw std::logic_error("ClientChannel: a request is in flight");
  parked_ = request;
}

Frame ClientChannel::receive() {
  if (!parked_) throw std::logic_error("ClientChannel: receive without send");
  const Frame request = std::move(*parked_);
  parked_.reset();
  return call(request);
}

void ClientChannel::accountFrames(std::size_t payloadOut,
                                  std::size_t payloadIn,
                                  std::size_t overheadOut,
                                  std::size_t overheadIn) {
  if (overheadOut != 0 || overheadIn != 0) {
    if (meter_ != nullptr) meter_->recordOverhead(site_, overheadOut, overheadIn);
    if (scope_ != nullptr) scope_->recordOverhead(overheadOut + overheadIn);
  }
  if (framesOut_ != nullptr) {
    framesOut_->inc();
    framesIn_->inc();
    bytesOut_->add(payloadOut + overheadOut);
    bytesIn_->add(payloadIn + overheadIn);
  }
}

}  // namespace dsud
