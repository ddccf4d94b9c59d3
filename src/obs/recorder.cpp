#include "obs/recorder.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <utility>

namespace dsud::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(std::max<std::size_t>(capacity, 1)) {}

void FlightRecorder::accept(const Event& event) {
  std::string line = eventToNdjson(event);
  line.shrink_to_fit();
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % slots_.size()];
  {
    std::lock_guard lock(slot.mutex);
    slot.line.swap(line);
    slot.wallNs = event.wallNs;
    slot.seq = seq;
  }
  // `line` now holds the overwritten render; it is freed out of the lock.
}

std::vector<std::string> FlightRecorder::snapshot(
    std::uint64_t sinceWallNs) const {
  std::vector<std::pair<std::uint64_t, std::string>> entries;
  entries.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    std::lock_guard lock(slot.mutex);
    if (slot.line.empty() || slot.wallNs < sinceWallNs) continue;
    entries.emplace_back(slot.seq, slot.line);
  }
  std::sort(entries.begin(), entries.end());  // by claim index: unique
  std::vector<std::string> lines;
  lines.reserve(entries.size());
  for (auto& entry : entries) lines.push_back(std::move(entry.second));
  return lines;
}

std::string FlightRecorder::dumpNdjson(std::uint64_t sinceWallNs) const {
  std::string out;
  for (const std::string& line : snapshot(sinceWallNs)) {
    out += line;
    out.push_back('\n');
  }
  return out;
}

void FlightRecorder::setDumpDir(std::string dir) {
  std::lock_guard lock(dirMutex_);
  dir_ = std::move(dir);
}

std::string FlightRecorder::dumpDir() const {
  std::lock_guard lock(dirMutex_);
  return dir_;
}

std::string FlightRecorder::anomaly(std::string_view reason) {
  std::string dir = dumpDir();
  if (dir.empty()) return {};
  const std::uint64_t n = dumpSeq_.fetch_add(1, std::memory_order_relaxed);

  const double window = windowSeconds();
  const std::uint64_t now = wallClockNs();
  const std::uint64_t windowNs =
      window > 0 ? static_cast<std::uint64_t>(window * 1e9) : 0;
  const std::uint64_t since =
      (windowNs > 0 && now > windowNs) ? now - windowNs : 0;

  ::mkdir(dir.c_str(), 0755);  // best-effort; EEXIST is the common case

  // Sanitise the reason into a filename fragment.
  std::string tag;
  tag.reserve(reason.size());
  for (char c : reason) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-';
    tag.push_back(safe ? c : '_');
  }
  if (tag.empty()) tag = "anomaly";

  char name[160];
  std::snprintf(name, sizeof name, "/recorder-%s-%d-%llu.ndjson", tag.c_str(),
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(n));
  std::string path = dir + name;

  const std::string body = dumpNdjson(since);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return {};
  std::fwrite(body.data(), 1, body.size(), file);
  std::fclose(file);
  return path;
}

namespace {

std::atomic<std::size_t> g_configuredCapacity{FlightRecorder::kDefaultCapacity};
std::atomic<bool> g_recorderLive{false};

}  // namespace

FlightRecorder& flightRecorder() {
  static FlightRecorder* recorder = [] {
    g_recorderLive.store(true, std::memory_order_release);
    return new FlightRecorder(
        g_configuredCapacity.load(std::memory_order_acquire));
  }();
  return *recorder;
}

bool configureFlightRecorder(std::size_t capacity) {
  if (capacity == 0) return false;
  if (g_recorderLive.load(std::memory_order_acquire)) return false;
  g_configuredCapacity.store(capacity, std::memory_order_release);
  return true;
}

}  // namespace dsud::obs
