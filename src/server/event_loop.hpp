// Single-threaded epoll event loop for the query-serving daemon.
//
// One loop thread multiplexes every listener and client connection — no
// thread-per-connection.  Worker threads never touch fds directly; they
// hand results back with post(), which enqueues a closure and wakes the
// loop through an eventfd.  Timers are coarse (the drain deadline, not
// per-packet timeouts), so a sorted scan over a handful of entries beats a
// timer wheel.
//
// Thread-safety contract: add/modify/remove and the callbacks run on the
// loop thread only; post(), wake(), and stop() may be called from any
// thread (and stop() additionally from signal context via the wakeFd).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "net/wire.hpp"

namespace dsud::server {

class EventLoop {
 public:
  /// `events` is the EPOLLIN/EPOLLOUT bitmask the fd was registered with.
  using IoCallback = std::function<void(std::uint32_t events)>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` (loop thread only).  The callback may add/remove other
  /// fds freely; removing its *own* fd is safe too (the dispatch holds a
  /// reference to the handler, not an iterator).
  void add(int fd, std::uint32_t events, IoCallback callback);
  void modify(int fd, std::uint32_t events);
  void remove(int fd);

  /// Dispatches events until stop().  Runs posted tasks and due timers
  /// between epoll waits.
  void run();

  /// Ends run() after the current iteration.  Any thread.
  void stop();

  /// Enqueues `task` for the loop thread and wakes it.  Any thread.
  void post(std::function<void()> task);

  /// Forces the loop through one more iteration.  Any thread.
  void wake();

  /// Runs `fn` on the loop thread once `seconds` have elapsed.  Returns a
  /// token for cancelTimer().  Loop thread only (post() a closure that
  /// schedules, when arming from elsewhere).
  std::uint64_t runAfter(double seconds, std::function<void()> fn);
  void cancelTimer(std::uint64_t token);

  /// The eventfd that wakes the loop.  A signal handler may write(2) an
  /// 8-byte value to it (async-signal-safe) to force an iteration; pair
  /// with an atomic flag checked from the wake handler below.
  int wakeFd() const noexcept { return wakeFd_; }

  /// Runs on the loop thread after every wake (post(), wake(), or a signal
  /// handler writing to wakeFd()).  This is where a daemon checks its
  /// signal flags.  Set before run(); loop thread only.
  void setWakeHandler(std::function<void()> handler) {
    wakeHandler_ = std::move(handler);
  }

  bool running() const noexcept { return running_; }

 private:
  struct Timer {
    std::uint64_t token;
    double deadline;  ///< steady-clock seconds
    std::function<void()> fn;
  };

  void drainWake();
  void runPosted();
  int msUntilNextTimer() const;
  void runDueTimers();

  /// A registration is (fd, generation): the generation rides along in
  /// epoll_event.data and is re-checked at dispatch, so a queued event for
  /// an fd that was closed and reused by a later accept() within the same
  /// epoll_wait batch is dropped instead of reaching the new registration.
  struct Handler {
    std::uint32_t gen = 0;
    std::shared_ptr<IoCallback> callback;
  };

  int epollFd_ = -1;
  int wakeFd_ = -1;
  bool running_ = false;
  std::atomic<bool> stopRequested_{false};  ///< written by stop(), any thread
  std::uint32_t nextGen_ = 1;
  std::map<int, Handler> handlers_;
  std::function<void()> wakeHandler_;
  std::vector<Timer> timers_;
  std::uint64_t nextTimerToken_ = 1;

  std::mutex postMutex_;
  std::vector<std::function<void()>> posted_;
};

}  // namespace dsud::server
