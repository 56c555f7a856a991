// The three workloads. Each runs set-up, measures for Options::seconds,
// crashes and recovers what it built, checks the recovered state against the
// benchmark's model, and returns every end-to-end metric (untraced run) or
// every per-layer metric (traced run). Metrics a workload's layers do not
// touch are reported as 0 in the traced run.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include "perfbench/src/harness.h"

namespace perfbench {

// End-to-end figures every workload measures; Emit* turn them into the
// result's metrics for the run's mode.
struct EndToEnd {
  double setup_s = 0;
  // One entry per measurement window (a round, a run of actions, or the
  // whole run): its throughput and median latency. The run reports the best
  // twentieth of its windows (see EmitMetrics).
  std::vector<double> window_ops_per_s, window_p50_us;
  // One sample per crash-and-restart.
  std::vector<double> restart_s;
  double medium_bytes_per_commit = 0;

  // Adds a window of `ops` operations over `seconds`, with one latency
  // sample per completed operation in `op_us` (sorted in place).
  void AddWindow(std::vector<double>& op_us, std::uint64_t ops, double seconds);
};

// Per-layer figures; fields a workload does not touch stay 0.
struct PerLayer {
  double object_write_ns = 0;
  double object_commit_volatile_ns = 0;
  double recovery_stage_prepare_ns = 0;
  double recovery_stage_commit_ns = 0;
  double client_staging_wait_ns = 0;
  double recovery_wait_durable_ns = 0;
  double log_forces_per_commit = 0;
  double log_coalesced_share = 0;
  double log_force_wait_ns = 0;
  double stable_append_ns = 0;
  double stable_append_bytes_per_commit = 0;
  double log_open_ns = 0;
  double log_recover_after_crash_ns = 0;
  double log_frames_scanned = 0;
  double recovery_recover_ns = 0;
  double recovery_chain_walk_ns = 0;
  double recovery_entries_examined = 0;
  double recovery_data_entries_read = 0;
  double stable_read_calls = 0;
  double stable_read_bytes = 0;
  double stable_read_ns = 0;
  double stable_cache_hit_rate = 0;
  double stable_cache_bytes_from_medium = 0;
  double tpc_top_action_ns = 0;
  double tpc_get_stable_variable_ns = 0;
  double tpc_early_prepare_ns = 0;
  double tpc_messages_per_action = 0;
  double recovery_checkpoints = 0;
  double recovery_checkpoint_ns = 0;
  double recovery_checkpoint_log_bytes = 0;
};

// Adds the run's metrics to `result`: the end-to-end set when untraced; the
// per-layer set plus the traced run's own throughput and median latency
// (the tracing overhead) when traced.
void EmitMetrics(const Options& options, EndToEnd& e2e, const PerLayer& layers,
                 RunResult& result);

RunResult RunCommitDuplexed(const Options& options);
RunResult RunRestartFile(const Options& options);
RunResult RunTwoPcCheckpointed(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
