// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Runs one workload against the recovery system and prints one JSON result
// line (see README.md). Exits 1 when the program's outputs were wrong, 2 on
// bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/workloads.h"

namespace perfbench {

void EndToEnd::AddWindow(std::vector<double>& op_us, std::uint64_t ops, double seconds) {
  window_ops_per_s.push_back(static_cast<double>(ops) / seconds);
  window_p50_us.push_back(Quantile(op_us, 0.5));
}

// The host shares its memory system with other tenants, and the program's
// speed follows their load: within one run of twopc_checkpointed, windows of
// 2000 actions toggle between about 5.5k and 8.5k actions/s in phases of one
// to several seconds, and the share of slow phases differs from run to run.
// Medians over a run's windows spread 20% between runs; the best twentieth
// spread 9%. So a run reports the best twentieth of its windows and
// restarts: the figures with the least of the other tenants' load in them. A
// change to the program moves every window, and the best twentieth with them.
constexpr double kBest = 0.05;

void EmitMetrics(const Options& options, EndToEnd& e2e, const PerLayer& layers,
                 RunResult& result) {
  double ops_per_s = Quantile(e2e.window_ops_per_s, 1 - kBest);
  double p50_us = Quantile(e2e.window_p50_us, kBest);
  if (!options.trace) {
    result.Add("setup_s", e2e.setup_s, "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
    result.Add("ops_per_s", ops_per_s, "op/s");
    result.Add("op_p50_us", p50_us, "us");
    result.Add("restart_s", Quantile(e2e.restart_s, kBest), "s");
    result.Add("medium_bytes_per_commit", e2e.medium_bytes_per_commit, "B");
    return;
  }
  result.Add("object.write_ns", layers.object_write_ns, "ns");
  result.Add("object.commit_volatile_ns", layers.object_commit_volatile_ns, "ns");
  result.Add("recovery.stage_prepare_ns", layers.recovery_stage_prepare_ns, "ns");
  result.Add("recovery.stage_commit_ns", layers.recovery_stage_commit_ns, "ns");
  result.Add("client.staging_wait_ns", layers.client_staging_wait_ns, "ns");
  result.Add("recovery.wait_durable_ns", layers.recovery_wait_durable_ns, "ns");
  result.Add("log.forces_per_commit", layers.log_forces_per_commit, "force/commit");
  result.Add("log.coalesced_share", layers.log_coalesced_share, "ratio");
  result.Add("log.force_wait_ns", layers.log_force_wait_ns, "ns");
  result.Add("stable.append_ns", layers.stable_append_ns, "ns");
  result.Add("stable.append_bytes_per_commit", layers.stable_append_bytes_per_commit, "B");
  result.Add("log.open_ns", layers.log_open_ns, "ns");
  result.Add("log.recover_after_crash_ns", layers.log_recover_after_crash_ns, "ns");
  result.Add("log.frames_scanned", layers.log_frames_scanned, "count");
  result.Add("recovery.recover_ns", layers.recovery_recover_ns, "ns");
  result.Add("recovery.chain_walk_ns", layers.recovery_chain_walk_ns, "ns");
  result.Add("recovery.entries_examined", layers.recovery_entries_examined, "count");
  result.Add("recovery.data_entries_read", layers.recovery_data_entries_read, "count");
  result.Add("stable.read_calls", layers.stable_read_calls, "count");
  result.Add("stable.read_bytes", layers.stable_read_bytes, "B");
  result.Add("stable.read_ns", layers.stable_read_ns, "ns");
  result.Add("stable.cache_hit_rate", layers.stable_cache_hit_rate, "ratio");
  result.Add("stable.cache_bytes_from_medium", layers.stable_cache_bytes_from_medium, "B");
  result.Add("tpc.top_action_ns", layers.tpc_top_action_ns, "ns");
  result.Add("tpc.get_stable_variable_ns", layers.tpc_get_stable_variable_ns, "ns");
  result.Add("tpc.early_prepare_ns", layers.tpc_early_prepare_ns, "ns");
  result.Add("tpc.messages_per_action", layers.tpc_messages_per_action, "msg/action");
  result.Add("recovery.checkpoints", layers.recovery_checkpoints, "count");
  result.Add("recovery.checkpoint_ns", layers.recovery_checkpoint_ns, "ns");
  result.Add("recovery.checkpoint_log_bytes", layers.recovery_checkpoint_log_bytes, "B");
  result.Add("traced.ops_per_s", ops_per_s, "op/s");
  result.Add("traced.op_p50_us", p50_us, "us");
}

}  // namespace perfbench

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <commit_duplexed|restart_file|"
               "twopc_checkpointed> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad number for " + flag).c_str());
    }
  }
  if (!(options.seconds > 0 && options.seconds <= 3600)) {
    return Usage("--seconds must be in (0, 3600]");
  }

  perfbench::RunResult result;
  if (options.workload == "commit_duplexed") {
    result = perfbench::RunCommitDuplexed(options);
  } else if (options.workload == "restart_file") {
    result = perfbench::RunRestartFile(options);
  } else if (options.workload == "twopc_checkpointed") {
    result = perfbench::RunTwoPcCheckpointed(options);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  perfbench::PrintResult(result);
  return result.correct ? 0 : 1;
}
