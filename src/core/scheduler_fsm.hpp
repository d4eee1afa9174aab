// The Run-time Scheduler's finite state machine (paper Fig. 4).
//
// Leader workflow:  Analyze -> Explore -> Global:Offload -> Local:Map ->
// Execute -> Global:Offload (merge) -> Analyze.
// Follower workflow: Analyze -> Local:Map -> Execute -> Analyze.
//
// The FSM enforces legal transitions and records a timestamped trace; the
// HiDP strategy drives it through one planning round per request, and tests
// assert the protocol ordering.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace hidp::core {

enum class FsmState { kAnalyze, kExplore, kGlobalOffload, kLocalMap, kExecute };

std::string_view fsm_state_name(FsmState state) noexcept;

/// Role determines the legal transition relation.
enum class FsmRole { kLeader, kFollower };

struct FsmTransition {
  FsmState from;
  FsmState to;
  double at_s = 0.0;
};

class RuntimeSchedulerFsm {
 public:
  explicit RuntimeSchedulerFsm(FsmRole role) : role_(role) {}

  FsmRole role() const noexcept { return role_; }
  FsmState state() const noexcept { return state_; }
  const std::vector<FsmTransition>& trace() const noexcept { return trace_; }

  /// Moves to `next` at time `at_s`. Throws std::logic_error on an illegal
  /// transition for this role.
  void transition(FsmState next, double at_s);

  /// Back to Analyze with an empty trace, keeping the trace's storage (the
  /// strategy restarts one FSM per planning round).
  void restart() noexcept {
    state_ = FsmState::kAnalyze;
    trace_.clear();
  }

  /// True if `from -> to` is legal for `role`.
  static bool legal(FsmRole role, FsmState from, FsmState to) noexcept;

  /// Convenience: runs one full leader planning round starting at `t0`,
  /// advancing by the given phase durations, ending back in Analyze.
  /// Returns the total elapsed seconds.
  double run_leader_round(double t0, double analyze_s, double explore_s, double map_s,
                          double execute_s);

  /// Convenience: one follower round (receive -> map -> execute -> report).
  double run_follower_round(double t0, double map_s, double execute_s);

 private:
  FsmRole role_;
  FsmState state_ = FsmState::kAnalyze;
  std::vector<FsmTransition> trace_;
};

}  // namespace hidp::core
