// restart_file: full restarts of one guardian from a hybrid log in a file.
//
// Set-up builds the log through the commit path into a FileStableMedium file:
// kDirs x kAccountsPerDir accounts, then kTransfers committed transfers,
// forced every kForceEvery actions. The log is several times the ReadCache's
// 16 MiB. The timed operation reopens the file, builds a fresh StableLog,
// RecoverySystem and heap, and calls Recover(); it repeats over the same file
// and every restart is checked against the model.

#include <unistd.h>

#include "perfbench/src/bank.h"
#include "perfbench/src/workloads.h"
#include "src/stable/file_medium.h"

namespace perfbench {
namespace {

using argus::ActionContext;
using argus::ActionId;
using argus::FileStableMedium;
using argus::GuardianId;
using argus::LogAddress;
using argus::RecoverySystem;
using argus::Result;
using argus::StableLog;
using argus::StableMedium;
using argus::Status;
using argus::VolatileHeap;

constexpr std::uint32_t kDirs = 100;
constexpr std::uint32_t kAccountsPerDir = 1000;
constexpr std::uint32_t kAccounts = kDirs * kAccountsPerDir;
constexpr std::uint32_t kTransfers = 100000;
constexpr std::uint32_t kForceEvery = 1000;
constexpr std::size_t kValueBytes = 200;
constexpr std::int64_t kInitialBalance = 1000000;
constexpr int kMinRestarts = 3;

// Removes the log file however the run ends.
struct TempFile {
  std::string path;
  ~TempFile() { ::unlink(path.c_str()); }
};

Result<std::unique_ptr<StableMedium>> OpenMedium(const std::string& path, MediumTotals* totals,
                                                 bool trace) {
  Result<std::unique_ptr<FileStableMedium>> file = FileStableMedium::Open(path);
  if (!file.ok()) {
    return file.status();
  }
  std::unique_ptr<StableMedium> medium = std::move(file).value();
  if (trace) {
    medium = std::make_unique<ProbeMedium>(std::move(medium), totals, true);
  }
  return medium;
}

// Builds the log; returns the number of committed actions and the file's
// size through the out-parameters.
Status BuildLog(const std::string& path, std::uint64_t seed, Model& model,
                std::uint64_t* committed, std::uint64_t* file_bytes) {
  Result<std::unique_ptr<FileStableMedium>> file = FileStableMedium::Open(path);
  if (!file.ok()) {
    return file.status();
  }
  auto held = std::make_shared<std::unique_ptr<StableMedium>>(std::move(file).value());
  argus::RecoverySystemConfig config;
  config.mode = argus::LogMode::kHybrid;
  config.medium_factory = [held] { return std::move(*held); };
  VolatileHeap heap;
  RecoverySystem rs(config, &heap);
  std::vector<argus::RecoverableObject*> accounts;
  std::uint64_t sequence = 0;
  for (std::uint32_t d = 0; d < kDirs; ++d) {
    Status s = CreateDirectory(rs, heap, ActionId{GuardianId{0}, sequence++}, d, kAccountsPerDir,
                               kInitialBalance, kValueBytes, accounts);
    if (!s.ok()) {
      return s;
    }
  }
  model.balances.assign(kAccounts, kInitialBalance);
  model.total_at_setup = kInitialBalance * kAccounts;

  argus::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  LogAddress last = LogAddress::Null();
  for (std::uint32_t i = 0; i < kTransfers; ++i) {
    std::uint32_t from = static_cast<std::uint32_t>(rng.NextBelow(kAccounts));
    std::uint32_t to = static_cast<std::uint32_t>(rng.NextBelow(kAccounts - 1));
    to += to >= from ? 1 : 0;
    std::int64_t amount = static_cast<std::int64_t>(rng.NextInRange(1, 1000));
    ActionContext ctx(ActionId{GuardianId{0}, sequence++});
    Status s = Move(ctx, accounts[from], accounts[to], amount);
    if (!s.ok()) {
      return s;
    }
    Result<LogAddress> prepared = rs.StagePrepare(ctx.aid(), ctx.TakeMos());
    if (!prepared.ok()) {
      return prepared.status();
    }
    Result<LogAddress> commit = rs.StageCommit(ctx.aid());
    if (!commit.ok()) {
      return commit.status();
    }
    ctx.CommitVolatile(heap);
    model.balances[from] -= amount;
    model.balances[to] += amount;
    last = commit.value();
    if ((i + 1) % kForceEvery == 0 || i + 1 == kTransfers) {
      s = rs.WaitDurable(last);
      if (!s.ok()) {
        return s;
      }
    }
  }
  *committed = sequence;
  *file_bytes = rs.log().medium().physical_bytes_written();
  return Status::Ok();
}

}  // namespace

RunResult RunRestartFile(const Options& options) {
  RunResult result;
  EndToEnd e2e;
  PerLayer layers;
  std::unique_ptr<Tracer> tracer = options.trace ? std::make_unique<Tracer>() : nullptr;
  SpanLog* log = tracer ? tracer->NewThreadLog() : nullptr;
  std::uint32_t n_restart = tracer ? tracer->Name("restart") : 0;
  std::uint32_t n_open = tracer ? tracer->Name("log.open") : 0;
  std::uint32_t n_recover = tracer ? tracer->Name("recovery.recover") : 0;
  std::uint32_t n_scan = tracer ? tracer->Name("log.recover_after_crash") : 0;
  std::uint32_t n_walk = tracer ? tracer->Name("recovery.chain_walk") : 0;

  TempFile file{options.work_dir + "/restart_file-seed" + std::to_string(options.seed) + "-" +
                std::to_string(::getpid()) + ".log"};
  ::unlink(file.path.c_str());
  Model model;
  std::uint64_t committed = 0;
  std::uint64_t file_bytes = 0;
  Status built = BuildLog(file.path, options.seed, model, &committed, &file_bytes);
  e2e.setup_s = static_cast<double>(SinceProcessStartNs()) / 1e9;
  e2e.medium_bytes_per_commit =
      static_cast<double>(file_bytes) / static_cast<double>(std::max<std::uint64_t>(committed, 1));
  if (!built.ok()) {
    result.Fail("set-up: " + built.ToString());
  }

  argus::RecoverySystemConfig config;
  config.mode = argus::LogMode::kHybrid;
  config.medium_factory = [] { return std::make_unique<argus::InMemoryStableMedium>(); };

  MediumTotals totals;
  double frames = 0, entries = 0, data_entries = 0, hits = 0, reads = 0, cache_bytes = 0;
  int restarts = 0;
  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
  while (result.correct && (restarts < kMinRestarts || NowNs() < deadline)) {
    std::uint64_t read_bytes_before = totals.read_bytes;
    std::int64_t start = NowNs();
    auto heap = std::make_unique<VolatileHeap>();
    std::unique_ptr<RecoverySystem> rs;
    Result<argus::RecoveryInfo> info = Status::Ok();
    {
      ScopedSpan restart(log, n_restart, static_cast<std::uint64_t>(restarts));
      std::unique_ptr<StableLog> stable;
      {
        ScopedSpan open(log, n_open, static_cast<std::uint64_t>(restarts));
        Result<std::unique_ptr<StableMedium>> medium = OpenMedium(file.path, &totals, options.trace);
        if (!medium.ok()) {
          result.Fail("reopen: " + medium.status().ToString());
          break;
        }
        stable = std::make_unique<StableLog>(std::move(medium).value());
      }
      rs = std::make_unique<RecoverySystem>(config, heap.get(), std::move(stable));
      ScopedSpan recover(log, n_recover, static_cast<std::uint64_t>(restarts));
      info = rs->Recover();
    }
    std::int64_t elapsed = NowNs() - start;
    ++restarts;
    ++result.attempted;
    if (!info.ok()) {
      ++result.failed;
      result.Fail("recover: " + info.status().ToString());
      break;
    }
    // Each restart is a window of its own: it is long enough to be its own
    // sample, and the run reports on the best twentieth of its restarts.
    std::vector<double> restart_us = {static_cast<double>(elapsed) / 1e3};
    e2e.AddWindow(restart_us, 1, static_cast<double>(elapsed) / 1e9);
    e2e.restart_s.push_back(static_cast<double>(elapsed) / 1e9);

    argus::LogStats stats = rs->log().StatsSnapshot();
    argus::ReadCache::Stats cache = rs->log().read_cache().StatsSnapshot();
    entries += static_cast<double>(info.value().entries_examined);
    data_entries += static_cast<double>(info.value().data_entries_read);
    hits += static_cast<double>(stats.cache_hits);
    reads += static_cast<double>(stats.cache_hits + stats.cache_misses);
    cache_bytes += static_cast<double>(cache.bytes_from_medium);
    if (options.trace && totals.read_bytes - read_bytes_before != cache.bytes_from_medium) {
      result.Fail("reconcile: medium read " + std::to_string(totals.read_bytes - read_bytes_before) +
                  " B, ReadCache fetched " + std::to_string(cache.bytes_from_medium) + " B");
    }

    std::string error;
    std::vector<std::int64_t> balances = ReadDirectoryBalances(*heap, kDirs, &error);
    for (const std::string& why : {error, CheckBalances(balances, model), CheckTotal(balances, model),
                                   CheckCommitted(info.value().pt, committed)}) {
      if (!why.empty()) {
        result.Fail("restart " + std::to_string(restarts) + ": " + why);
      }
    }
    rs.reset();
    heap.reset();

    if (options.trace) {
      // The restart's two scans, each timed alone over the same file: the
      // forward frame scan that finds the durable top, and the backward
      // outcome-chain walk.
      Result<std::unique_ptr<StableMedium>> medium = OpenMedium(file.path, &totals, false);
      if (!medium.ok()) {
        result.Fail("reopen: " + medium.status().ToString());
        break;
      }
      StableLog stable(std::move(medium).value());
      Result<std::uint64_t> scanned = Status::Ok();
      {
        ScopedSpan scan(log, n_scan, static_cast<std::uint64_t>(restarts));
        scanned = stable.RecoverAfterCrash();
      }
      VolatileHeap walk_heap;
      Result<argus::RecoveryResult> walked = Status::Ok();
      {
        ScopedSpan walk(log, n_walk, static_cast<std::uint64_t>(restarts));
        walked = argus::RecoverHybridLog(stable, walk_heap);
      }
      if (!scanned.ok() || !walked.ok()) {
        result.Fail("timed scans failed");
        break;
      }
      frames += static_cast<double>(scanned.value());
    }
  }

  double n = static_cast<double>(std::max(restarts, 1));
  if (tracer) {
    layers.log_open_ns = tracer->MeanNs("log.open");
    layers.recovery_recover_ns = tracer->MeanNs("recovery.recover");
    layers.log_recover_after_crash_ns = tracer->MeanNs("log.recover_after_crash");
    layers.recovery_chain_walk_ns = tracer->MeanNs("recovery.chain_walk");
    layers.log_frames_scanned = frames / n;
    layers.recovery_entries_examined = entries / n;
    layers.recovery_data_entries_read = data_entries / n;
    // The wrapper's read counters cover the timed restarts only: the extra
    // timed scans open the file unwrapped.
    layers.stable_read_calls = static_cast<double>(totals.read_calls) / n;
    layers.stable_read_bytes = static_cast<double>(totals.read_bytes) / n;
    layers.stable_read_ns = static_cast<double>(totals.read_ns) / n;
    layers.stable_cache_hit_rate = reads == 0 ? 0 : hits / reads;
    layers.stable_cache_bytes_from_medium = cache_bytes / n;
    if (!tracer->WriteOut(options.work_dir + "/restart_file-seed" + std::to_string(options.seed))) {
      result.Fail("could not write the span dump");
    }
  }
  EmitMetrics(options, e2e, layers, result);
  return result;
}

}  // namespace perfbench
