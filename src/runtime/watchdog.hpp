// Stall watchdog for the supervised scoring stage.
//
// Liveness is judged from *progress*, never from wall-clock sampling
// inside the scorer: the supervisor feeds poll() the handled-frame count
// and whether a stalled backlog is pending, plus an externally supplied
// timestamp.  Time only ever enters through poll(now_ns), so tests drive
// the watchdog on virtual time and the verdict stream stays a pure
// function of the inputs.
//
// Restart discipline: a stalled stage earns a restart, each restart doubles
// the backoff window (bounded), and progress resets the streak.  Past
// max_restarts the watchdog gives up and the supervisor degrades instead
// of thrashing.
#pragma once

#include <cstdint>

namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace obs

namespace runtime {

struct WatchdogConfig {
  /// No completed-frame progress for this long, with work pending, counts
  /// as a stall.
  std::uint64_t stall_timeout_ns = 2'000'000'000;
  /// Backoff window after the first restart; doubles per restart in the
  /// current streak, clamped to max_backoff_ns.
  std::uint64_t initial_backoff_ns = 100'000'000;
  std::uint64_t max_backoff_ns = 10'000'000'000;
  /// Consecutive restarts (no intervening progress) before giving up.
  std::uint32_t max_restarts = 8;
};

class Watchdog {
 public:
  enum class Action {
    kNone,     // healthy, or backing off
    kRestart,  // stalled: give up the stalled frame, score the backlog
    kGiveUp,   // restart budget exhausted: degrade instead
  };

  explicit Watchdog(WatchdogConfig config);

  /// Mirrors restarts/stalls into `runtime_restarts_total` /
  /// `runtime_stalls_total`.  Null detaches.
  void bind_metrics(obs::MetricsRegistry* registry);

  /// One supervision tick.  `completed_frames` is the supervisor's
  /// monotone handled count; `work_pending` is whether any accepted frame
  /// is still unscored.
  Action poll(std::uint64_t now_ns, std::uint64_t completed_frames,
              bool work_pending);

  /// The supervisor finished a restart; starts the backoff window.
  void notify_restarted(std::uint64_t now_ns);

  std::uint32_t restarts() const { return restarts_total_; }
  std::uint32_t restart_streak() const { return streak_; }
  std::uint64_t stalls_detected() const { return stalls_; }
  std::uint64_t current_backoff_ns() const { return backoff_ns_; }

 private:
  WatchdogConfig config_;
  std::uint64_t last_progress_ns_ = 0;
  std::uint64_t last_completed_ = 0;
  std::uint64_t backoff_until_ns_ = 0;
  std::uint64_t backoff_ns_ = 0;
  std::uint32_t streak_ = 0;
  std::uint32_t restarts_total_ = 0;
  std::uint64_t stalls_ = 0;
  bool primed_ = false;
  bool gave_up_ = false;
  obs::Counter* metric_restarts_ = nullptr;
  obs::Counter* metric_stalls_ = nullptr;
};

}  // namespace runtime
