#include "net/bandwidth.hpp"

namespace dsud {

BandwidthMeter::BandwidthMeter(std::size_t siteCount) : links_(siteCount) {}

void BandwidthMeter::ensureSiteLocked(SiteId site) {
  if (site >= links_.size()) links_.resize(site + 1);
}

void BandwidthMeter::recordCall(SiteId site, std::uint64_t requestBytes,
                                std::uint64_t responseBytes) {
  std::lock_guard lock(mutex_);
  ensureSiteLocked(site);
  LinkUsage& l = links_[site];
  l.bytesToSite += requestBytes;
  l.bytesFromSite += responseBytes;
  ++l.calls;
}

void BandwidthMeter::recordTuples(SiteId site, std::uint64_t toSite,
                                  std::uint64_t fromSite) {
  std::lock_guard lock(mutex_);
  ensureSiteLocked(site);
  links_[site].tuplesToSite += toSite;
  links_[site].tuplesFromSite += fromSite;
}

void BandwidthMeter::recordOverhead(SiteId site, std::uint64_t toSite,
                                    std::uint64_t fromSite) {
  std::lock_guard lock(mutex_);
  ensureSiteLocked(site);
  links_[site].bytesToSite += toSite;
  links_[site].bytesFromSite += fromSite;
}

LinkUsage BandwidthMeter::link(SiteId site) const {
  std::lock_guard lock(mutex_);
  if (site >= links_.size()) return LinkUsage{};
  return links_[site];
}

UsageTotals BandwidthMeter::totals() const {
  std::lock_guard lock(mutex_);
  UsageTotals t;
  for (const LinkUsage& l : links_) {
    t.tuples += l.tuplesToSite + l.tuplesFromSite;
    t.bytes += l.bytesToSite + l.bytesFromSite;
    t.calls += l.calls;
  }
  return t;
}

}  // namespace dsud
