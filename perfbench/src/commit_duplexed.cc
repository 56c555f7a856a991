// commit_duplexed: concurrent durable commits on one hybrid-log guardian over
// the Lampson-Sturgis duplexed medium, with default group commit.
//
// The run is a sequence of rounds. Each round builds a fresh guardian with
// kAccounts accounts, lets up to kMaxClients closed-loop clients commit
// kCommitsPerClient transfers each, then crashes the guardian, recovers it
// and checks every balance. Fresh rounds keep memory bounded whatever the
// commit rate, so peak RSS does not grow with throughput. The first round is
// a warm-up that counts as set-up.

#include <algorithm>
#include <mutex>
#include <thread>

#include "perfbench/src/bank.h"
#include "perfbench/src/workloads.h"
#include "src/stable/duplexed_medium.h"

namespace perfbench {
namespace {

using argus::ActionContext;
using argus::ActionId;
using argus::GuardianId;
using argus::LogAddress;
using argus::RecoverableObject;
using argus::RecoverySystem;
using argus::Result;
using argus::Status;
using argus::Value;
using argus::VolatileHeap;

constexpr std::uint32_t kDirs = 4;
constexpr std::uint32_t kAccountsPerDir = 1024;
constexpr std::uint32_t kAccounts = kDirs * kAccountsPerDir;
constexpr std::size_t kValueBytes = 200;
constexpr std::int64_t kInitialBalance = 1000000;
constexpr std::uint32_t kMaxClients = 4;
constexpr std::uint32_t kCommitsPerClient = 4096;

struct Names {
  std::uint32_t commit, staging_wait, write, stage_prepare, stage_commit, commit_volatile,
      wait_durable, restart, recover;
  explicit Names(Tracer& t)
      : commit(t.Name("client.commit")),
        staging_wait(t.Name("client.staging_wait")),
        write(t.Name("object.write")),
        stage_prepare(t.Name("recovery.stage_prepare")),
        stage_commit(t.Name("recovery.stage_commit")),
        commit_volatile(t.Name("object.commit_volatile")),
        wait_durable(t.Name("recovery.wait_durable")),
        restart(t.Name("restart")),
        recover(t.Name("recovery.recover")) {}
};

// One transfer's inputs: two (from, to, amount) moves over four distinct
// accounts.
struct Transfer {
  std::uint32_t account[4];
  std::int64_t amount[2];
};

Transfer DrawTransfer(argus::Rng& rng) {
  Transfer t{};
  for (int i = 0; i < 4; ++i) {
    bool fresh = false;
    while (!fresh) {
      t.account[i] = static_cast<std::uint32_t>(rng.NextBelow(kAccounts));
      fresh = std::find(t.account, t.account + i, t.account[i]) == t.account + i;
    }
  }
  t.amount[0] = static_cast<std::int64_t>(rng.NextInRange(1, 1000));
  t.amount[1] = static_cast<std::int64_t>(rng.NextInRange(1, 1000));
  return t;
}

// The guardian of one round plus everything its clients share.
struct Round {
  std::unique_ptr<VolatileHeap> heap;
  std::unique_ptr<RecoverySystem> rs;
  std::vector<RecoverableObject*> accounts;
  std::mutex mu;  // the per-guardian exclusion: heap, staging, model
  std::uint64_t next_sequence = 0;
  std::uint64_t committed = 0;
  Model model;
};

}  // namespace

RunResult RunCommitDuplexed(const Options& options) {
  RunResult result;
  EndToEnd e2e;
  PerLayer layers;
  std::unique_ptr<Tracer> tracer = options.trace ? std::make_unique<Tracer>() : nullptr;
  std::unique_ptr<Names> names = tracer ? std::make_unique<Names>(*tracer) : nullptr;
  SpanLog* main_log = tracer ? tracer->NewThreadLog() : nullptr;
  const std::uint32_t clients =
      std::max(1u, std::min(kMaxClients, std::thread::hardware_concurrency()));
  std::vector<SpanLog*> client_logs(clients, nullptr);
  for (std::uint32_t c = 0; tracer && c < clients; ++c) {
    client_logs[c] = tracer->NewThreadLog();
  }

  MediumTotals medium_totals;
  argus::RecoverySystemConfig config;
  config.mode = argus::LogMode::kHybrid;
  config.group_commit = argus::FlushCoordinatorConfig{};
  std::uint64_t medium_seed = options.seed;
  config.medium_factory = [&]() -> std::unique_ptr<argus::StableMedium> {
    auto medium = std::make_unique<argus::DuplexedStableMedium>(medium_seed);
    if (!options.trace) {
      return medium;
    }
    return std::make_unique<ProbeMedium>(std::move(medium), &medium_totals, true);
  };

  // What the measured rounds add up; reset after the warm-up round.
  struct Totals {
    std::vector<std::vector<double>> client_us;
    std::vector<double> restart_s;
    std::uint64_t attempted = 0, failed = 0, commits = 0, rounds = 0;
    argus::LogStats log;
    std::uint64_t physical = 0;
    std::uint64_t append_calls = 0, append_bytes = 0, read_calls = 0, read_bytes = 0;
    std::int64_t append_ns = 0, read_ns = 0;
    double cache_hits = 0, cache_reads = 0, cache_bytes = 0;
    double entries_examined = 0, data_entries_read = 0;
  };
  Totals sum;
  sum.client_us.resize(clients);
  std::uint64_t round_index = 0;

  auto build_round = [&](Round& round) -> Status {
    medium_seed = options.seed * 1000003 + round_index;
    round.heap = std::make_unique<VolatileHeap>();
    round.rs = std::make_unique<RecoverySystem>(config, round.heap.get());
    for (std::uint32_t d = 0; d < kDirs; ++d) {
      Status s = CreateDirectory(*round.rs, *round.heap, ActionId{GuardianId{0}, round.next_sequence++},
                                 d, kAccountsPerDir, kInitialBalance, kValueBytes, round.accounts);
      if (!s.ok()) {
        return s;
      }
    }
    round.model.balances.assign(kAccounts, kInitialBalance);
    round.model.total_at_setup = kInitialBalance * kAccounts;
    return Status::Ok();
  };

  // Round 0 is the warm-up and belongs to set-up: it is checked like every
  // round, but its figures are dropped.
  std::int64_t deadline = 0;
  while (result.correct && (round_index <= 1 || NowNs() < deadline)) {
    const bool measured = round_index > 0;
    auto round = std::make_unique<Round>();
    Status built = build_round(*round);
    if (!built.ok()) {
      result.Fail("round set-up: " + built.ToString());
      break;
    }
    argus::LogStats before = round->rs->log().StatsSnapshot();
    std::uint64_t physical_before = round->rs->log().medium().physical_bytes_written();
    std::uint64_t calls_before = medium_totals.append_calls, bytes_before = medium_totals.append_bytes;
    std::uint64_t pages_before = medium_totals.modeled_pages;
    std::int64_t ns_before = medium_totals.append_ns;
    std::vector<std::uint64_t> failures(clients, 0);

    auto client = [&](std::uint32_t c) {
      argus::Rng rng(options.seed * 0x9e3779b97f4a7c15ull + round_index * 64 + c);
      SpanLog* log = measured ? client_logs[c] : nullptr;
      Round& r = *round;
      for (std::uint32_t i = 0; i < kCommitsPerClient; ++i) {
        Transfer t = DrawTransfer(rng);
        std::uint64_t op = (round_index << 32) | (static_cast<std::uint64_t>(c) << 24) | i;
        std::int64_t start = NowNs();
        ScopedSpan commit_span(log, names ? names->commit : 0, op);
        LogAddress address = LogAddress::Null();
        std::uint64_t epoch = 0;
        Status s = Status::Ok();
        {
          std::unique_lock<std::mutex> lock(r.mu, std::defer_lock);
          {
            ScopedSpan wait(log, names ? names->staging_wait : 0, op);
            lock.lock();
          }
          ActionContext ctx(ActionId{GuardianId{0}, r.next_sequence++});
          for (int m = 0; m < 2 && s.ok(); ++m) {
            for (int side = 0; side < 2 && s.ok(); ++side) {
              std::int64_t delta = side == 0 ? -t.amount[m] : t.amount[m];
              ScopedSpan write(log, names ? names->write : 0, op);
              s = ctx.UpdateObject(r.accounts[t.account[2 * m + side]], [delta](Value& v) {
                Value& balance = v.as_record()["balance"];
                balance = Value::Int(balance.as_int() + delta);
              });
            }
          }
          if (s.ok()) {
            ScopedSpan stage(log, names ? names->stage_prepare : 0, op);
            s = r.rs->StagePrepare(ctx.aid(), ctx.TakeMos()).status();
          }
          if (s.ok()) {
            ScopedSpan stage(log, names ? names->stage_commit : 0, op);
            Result<LogAddress> committed = r.rs->StageCommit(ctx.aid());
            s = committed.status();
            if (s.ok()) {
              address = committed.value();
            }
          }
          if (!s.ok()) {
            ctx.AbortVolatile(*r.heap);
            ++failures[c];
            continue;
          }
          epoch = r.rs->durability_epoch();
          {
            ScopedSpan install(log, names ? names->commit_volatile : 0, op);
            ctx.CommitVolatile(*r.heap);
          }
          for (int m = 0; m < 2; ++m) {
            r.model.balances[t.account[2 * m]] -= t.amount[m];
            r.model.balances[t.account[2 * m + 1]] += t.amount[m];
          }
          ++r.committed;
        }
        {
          ScopedSpan wait(log, names ? names->wait_durable : 0, op);
          s = r.rs->WaitDurable(address, epoch);
        }
        if (!s.ok()) {
          ++failures[c];
          continue;
        }
        sum.client_us[c].push_back(static_cast<double>(NowNs() - start) / 1e3);
      }
    };

    std::int64_t round_start = NowNs();
    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back(client, c);
    }
    for (std::thread& t : threads) {
      t.join();
    }
    double round_seconds = static_cast<double>(NowNs() - round_start) / 1e9;
    std::vector<double> round_us;
    for (std::vector<double>& samples : sum.client_us) {
      round_us.insert(round_us.end(), samples.begin(), samples.end());
      samples.clear();
    }
    if (measured) {
      e2e.AddWindow(round_us, round->committed, round_seconds);
    }
    sum.commits += round->committed;
    sum.attempted += static_cast<std::uint64_t>(clients) * kCommitsPerClient;
    for (std::uint64_t f : failures) {
      sum.failed += f;
    }

    argus::LogStats after = round->rs->log().StatsSnapshot();
    sum.log.forces += after.forces - before.forces;
    sum.log.bytes_forced += after.bytes_forced - before.bytes_forced;
    sum.log.force_requests += after.force_requests - before.force_requests;
    sum.log.coalesced_requests += after.coalesced_requests - before.coalesced_requests;
    sum.log.total_force_wait_ns += after.total_force_wait_ns - before.total_force_wait_ns;
    std::uint64_t physical = round->rs->log().medium().physical_bytes_written() - physical_before;
    sum.physical += physical;
    if (options.trace) {
      std::uint64_t calls = medium_totals.append_calls - calls_before;
      std::uint64_t bytes = medium_totals.append_bytes - bytes_before;
      sum.append_calls += calls;
      sum.append_bytes += bytes;
      sum.append_ns += medium_totals.append_ns - ns_before;
      // Two independent counts of the same appends: the wrapper's and the
      // log's own.
      if (calls != after.forces - before.forces ||
          bytes != after.bytes_forced - before.bytes_forced) {
        result.Fail("reconcile: medium saw " + std::to_string(calls) + " appends / " +
                    std::to_string(bytes) + " B, LogStats counted " +
                    std::to_string(after.forces - before.forces) + " forces / " +
                    std::to_string(after.bytes_forced - before.bytes_forced) + " B");
      }
      // The medium's physical bytes against the pages the appends cover.
      std::uint64_t modeled = PhysicalBytesOfPages(medium_totals.modeled_pages - pages_before);
      if (physical != modeled) {
        result.Fail("reconcile: medium wrote " + std::to_string(physical) +
                    " physical B, its appends cover " + std::to_string(modeled) + " B of pages");
      }
    }

    // Crash: drop the volatile incarnation, keep the log.
    round->rs->CrashCoordinators();
    std::unique_ptr<argus::StableLog> stable = round->rs->TakeLog();
    round->rs.reset();
    round->heap.reset();
    std::uint64_t reads_before = medium_totals.read_calls, read_bytes_before = medium_totals.read_bytes;
    std::int64_t read_ns_before = medium_totals.read_ns;
    argus::ReadCache::Stats cache_before = stable->read_cache().StatsSnapshot();
    argus::LogStats log_before = stable->StatsSnapshot();

    SpanLog* main = measured ? main_log : nullptr;
    std::int64_t restart_start = NowNs();
    auto heap = std::make_unique<VolatileHeap>();
    Result<argus::RecoveryInfo> info = Status::Ok();
    std::unique_ptr<RecoverySystem> recovered;
    {
      ScopedSpan restart(main, names ? names->restart : 0, round_index);
      recovered = std::make_unique<RecoverySystem>(config, heap.get(), std::move(stable));
      ScopedSpan recover(main, names ? names->recover : 0, round_index);
      info = recovered->Recover();
    }
    sum.restart_s.push_back(static_cast<double>(NowNs() - restart_start) / 1e9);
    if (!info.ok()) {
      result.Fail("recover: " + info.status().ToString());
      break;
    }

    argus::LogStats log_after = recovered->log().StatsSnapshot();
    argus::ReadCache::Stats cache_after = recovered->log().read_cache().StatsSnapshot();
    std::uint64_t cache_fetched = cache_after.bytes_from_medium - cache_before.bytes_from_medium;
    sum.cache_hits += static_cast<double>(log_after.cache_hits - log_before.cache_hits);
    sum.cache_reads += static_cast<double>(log_after.cache_hits + log_after.cache_misses -
                                           log_before.cache_hits - log_before.cache_misses);
    sum.cache_bytes += static_cast<double>(cache_fetched);
    sum.entries_examined += static_cast<double>(info.value().entries_examined);
    sum.data_entries_read += static_cast<double>(info.value().data_entries_read);
    if (options.trace) {
      std::uint64_t bytes = medium_totals.read_bytes - read_bytes_before;
      sum.read_calls += medium_totals.read_calls - reads_before;
      sum.read_bytes += bytes;
      sum.read_ns += medium_totals.read_ns - read_ns_before;
      if (bytes != cache_fetched) {
        result.Fail("reconcile: medium read " + std::to_string(bytes) +
                    " B during restart, ReadCache fetched " + std::to_string(cache_fetched) + " B");
      }
    }

    std::string error;
    std::vector<std::int64_t> balances = ReadDirectoryBalances(*heap, kDirs, &error);
    for (const std::string& why :
         {error, CheckBalances(balances, round->model), CheckTotal(balances, round->model),
          CheckCommitted(info.value().pt, round->committed + kDirs)}) {
      if (!why.empty()) {
        result.Fail("round " + std::to_string(round_index) + ": " + why);
      }
    }
    for (std::uint64_t f : failures) {
      if (!measured && f != 0) {
        result.Fail("warm-up round: " + std::to_string(f) + " commits failed");
      }
    }
    ++sum.rounds;
    if (!measured) {
      e2e.setup_s = static_cast<double>(SinceProcessStartNs()) / 1e9;
      sum = Totals{};
      sum.client_us.resize(clients);
      deadline = NowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
    }
    ++round_index;
  }

  result.attempted = sum.attempted;
  result.failed = sum.failed;
  e2e.restart_s = sum.restart_s;
  double commits = static_cast<double>(std::max<std::uint64_t>(sum.commits, 1));
  double rounds = static_cast<double>(std::max<std::uint64_t>(sum.rounds, 1));
  e2e.medium_bytes_per_commit = static_cast<double>(sum.physical) / commits;

  if (tracer) {
    layers.object_write_ns = tracer->MeanNs("object.write");
    layers.object_commit_volatile_ns = tracer->MeanNs("object.commit_volatile");
    layers.recovery_stage_prepare_ns = tracer->MeanNs("recovery.stage_prepare");
    layers.recovery_stage_commit_ns = tracer->MeanNs("recovery.stage_commit");
    layers.client_staging_wait_ns = tracer->MeanNs("client.staging_wait");
    layers.recovery_wait_durable_ns = tracer->MeanNs("recovery.wait_durable");
    layers.recovery_recover_ns = tracer->MeanNs("recovery.recover");
    layers.log_forces_per_commit = static_cast<double>(sum.log.forces) / commits;
    if (sum.log.force_requests != 0) {
      double requests = static_cast<double>(sum.log.force_requests);
      layers.log_coalesced_share = static_cast<double>(sum.log.coalesced_requests) / requests;
      layers.log_force_wait_ns = static_cast<double>(sum.log.total_force_wait_ns) / requests;
    }
    if (sum.append_calls != 0) {
      layers.stable_append_ns =
          static_cast<double>(sum.append_ns) / static_cast<double>(sum.append_calls);
    }
    layers.stable_append_bytes_per_commit = static_cast<double>(sum.append_bytes) / commits;
    layers.recovery_entries_examined = sum.entries_examined / rounds;
    layers.recovery_data_entries_read = sum.data_entries_read / rounds;
    layers.stable_read_calls = static_cast<double>(sum.read_calls) / rounds;
    layers.stable_read_bytes = static_cast<double>(sum.read_bytes) / rounds;
    layers.stable_read_ns = static_cast<double>(sum.read_ns) / rounds;
    layers.stable_cache_hit_rate = sum.cache_reads == 0 ? 0 : sum.cache_hits / sum.cache_reads;
    layers.stable_cache_bytes_from_medium = sum.cache_bytes / rounds;
    if (!tracer->WriteOut(options.work_dir + "/commit_duplexed-seed" +
                          std::to_string(options.seed))) {
      result.Fail("could not write the span dump");
    }
  }
  EmitMetrics(options, e2e, layers, result);
  return result;
}

}  // namespace perfbench
