// Readiness notification for the server loop: the modern equivalent of the
// paper's WaitForSomething() select() core ("no operating system support
// more complex than the select() system call is required").
//
// The Poller facade keeps the interest set and delegates the kernel calls
// to a ReadinessBackend. Two backends exist:
//
//   epoll  - persistent kernel interest set; Watch/Unwatch are O(1)
//            epoll_ctl calls, a wake costs O(ready fds). The default on
//            Linux, where fan-out to hundreds of connections must not pay
//            O(connections) per wake.
//   poll   - a persistent pollfd array (no per-wake rebuild); portable,
//            and kept selectable for differential testing.
//
// Selection: AF_POLLER=poll or AF_POLLER=epoll in the environment, read at
// construction; unset picks epoll where available. The facade only calls
// into the backend when an fd's interest actually changes, so the server's
// habit of re-asserting every interest each iteration costs no syscalls in
// the steady state.
#ifndef AF_TRANSPORT_POLLER_H_
#define AF_TRANSPORT_POLLER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace af {

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool closed = false;  // hangup or error
};

// The kernel-facing half of the Poller: a persistent interest set plus a
// single-shot wait call. WaitOnce receives a timeout already clamped to
// what poll(2)/epoll_wait(2) accept (-1 = forever) and performs exactly
// one kernel wait, returning the raw syscall result (>= 0 ready count, or
// -1 with errno set). Timeout clamping and EINTR retry live in the Poller
// facade, so every backend — including future ones — inherits them and
// cannot get the edge cases wrong independently.
class ReadinessBackend {
 public:
  virtual ~ReadinessBackend() = default;
  virtual const char* name() const = 0;
  virtual void Add(int fd, bool want_read, bool want_write) = 0;
  virtual void Modify(int fd, bool want_read, bool want_write) = 0;
  virtual void Remove(int fd) = 0;
  // One kernel wait; appends ready fds to *out (caller clears it between
  // waits) and returns the raw syscall result.
  virtual int WaitOnce(int timeout_ms, std::vector<PollEvent>* out) = 0;
};

class Poller {
 public:
  enum class Backend { kPoll, kEpoll };

  // Backend from AF_POLLER (unset: epoll on Linux, poll elsewhere).
  Poller();
  explicit Poller(Backend backend);

  // Registers or updates interest in an fd. Re-asserting an unchanged
  // interest is free (no syscall).
  void Watch(int fd, bool want_read, bool want_write);
  void Unwatch(int fd);

  // Blocks up to timeout_ms (any negative value = forever, 0 = poll).
  // Returns fds with activity; empty on timeout. The returned vector is
  // owned by the Poller and reused across calls. EINTR is retried with
  // the remaining timeout rather than reported as an (empty) wake.
  const std::vector<PollEvent>& Wait(int64_t timeout_ms);

  size_t watched() const { return interests_.size(); }
  bool watching(int fd) const { return interests_.count(fd) != 0; }
  Backend backend() const { return backend_; }
  const char* backend_name() const;

  // Clamps a caller timeout to what the kernel wait calls accept: any
  // negative value means forever (-1), and values beyond INT_MAX saturate
  // instead of wrapping through the int cast. Applied by Wait() before
  // every backend call; exposed for the facade-level regression tests.
  static int ClampTimeoutMs(int64_t timeout_ms);

 private:
  struct Interest {
    bool want_read;
    bool want_write;
  };

  Backend backend_;
  std::unique_ptr<ReadinessBackend> impl_;
  std::unordered_map<int, Interest> interests_;
  std::vector<PollEvent> events_;
};

// The AF_POLLER choice ("poll" / "epoll"; unset or unrecognized picks the
// platform default). Exposed for tests and the poller_backend gauge.
Poller::Backend PollerBackendFromEnv();

}  // namespace af

#endif  // AF_TRANSPORT_POLLER_H_
