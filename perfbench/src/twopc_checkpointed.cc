// twopc_checkpointed: top-level transfer actions under two-phase commit in a
// serial world of three guardians on duplexed media, with stop-the-world
// snapshot checkpoints every kCheckpointBytes of log growth.
//
// Each account is a stable variable "a<i>" found with
// Guardian::GetStableVariable. A transfer has one participant (both accounts
// at the coordinator) or two (one at each end); each participant early-
// prepares with probability kEarlyPrepare; kOverdraw of the transfers ask
// for more than the account holds and are aborted by the client. A
// checkpoint that fires is timed inside the action that triggered it. The
// run is a series of rounds, each a fresh world of kRoundActions actions that
// ends in checked crash-and-restarts of the whole world.
//
// The world is built from Guardians and a SimNetwork directly (not SimWorld)
// so that every medium passes through the benchmark's medium_factory: that is
// how the run counts the physical bytes of every medium, retired checkpoint
// logs included.

#include "perfbench/src/bank.h"
#include "perfbench/src/workloads.h"
#include "src/tpc/sim_world.h"

namespace perfbench {
namespace {

using argus::ActionContext;
using argus::ActionId;
using argus::Guardian;
using argus::GuardianId;
using argus::RecoverableObject;
using argus::Result;
using argus::Status;
using argus::Value;

constexpr std::uint32_t kGuardians = 3;
constexpr std::uint32_t kAccountsPerGuardian = 1000;
constexpr std::uint32_t kAccountsPerSetupAction = 100;
constexpr std::size_t kValueBytes = 100;
constexpr std::int64_t kInitialBalance = 1000000;
constexpr std::int64_t kOverdrawAmount = 1000000000000;
constexpr double kTwoParticipants = 0.5;
constexpr double kEarlyPrepare = 0.2;
constexpr double kOverdraw = 0.05;
constexpr std::uint64_t kCheckpointBytes = 2 * 1024 * 1024;
// Set-up ends with a throwaway world that runs this many actions (about
// three checkpoints per guardian) and then crashes and restarts as a round
// does, so the allocator and caches are warm. The restarts matter: actions
// in the first world built after the process's first restarts run about a
// quarter slower than before them, and stay so in every later world.
constexpr std::uint32_t kWarmUpActions = 8000;
// The measured run is whole rounds. Each round builds a fresh world, runs
// kRoundActions actions, with a checkpoint on every guardian kTailActions
// before the end so that every restart sees the same log shape, then crashes
// and restarts the whole world kRestartsPerRound times, checking each
// restart. Every world lives the same number of actions, so what it keeps
// per action (and with it peak RSS) does not depend on the throughput.
constexpr std::uint32_t kRoundActions = 40000;
constexpr std::uint32_t kTailActions = 500;
constexpr int kRestartsPerRound = 48;
// Throughput and latency are taken per window of this many actions, 20 per
// round; the run reports the best twentieth of its windows (see EmitMetrics).
constexpr std::uint32_t kWindowActions = 2000;

std::string AccountName(std::uint32_t i) { return "a" + std::to_string(i); }

struct World {
  argus::SimNetwork network;
  std::vector<std::unique_ptr<Guardian>> guardians;

  explicit World(std::uint64_t seed) : network(seed) {}

  void Pump() {
    while (std::optional<argus::Message> m = network.NextDelivery()) {
      guardians[m->to.value]->HandleMessage(*m);
    }
  }

  Status RunAt(ActionId aid, std::uint32_t target,
               const std::function<Status(Guardian&, ActionContext&)>& body) {
    Guardian& g = *guardians[target];
    Status s = body(g, g.ContextFor(aid));
    if (s.ok()) {
      guardians[aid.coordinator.value]->EnlistParticipant(aid, g.gid());
    }
    return s;
  }

  Result<Guardian::ActionFate> RunTopAction(std::uint32_t coordinator,
                                            const std::function<Status(ActionId)>& body) {
    Guardian& g = *guardians[coordinator];
    ActionId aid = g.BeginTopAction();
    if (!body(aid).ok()) {
      g.AbortTopAction(aid);
      Pump();
      return Guardian::ActionFate::kAborted;
    }
    Status s = g.RequestCommit(aid);
    if (!s.ok()) {
      return s;
    }
    Pump();
    return g.FateOf(aid);
  }
};

struct Transfer {
  std::uint32_t from_guardian, to_guardian, from, to;
  std::int64_t amount;
  bool early_prepare[2];
};

Transfer DrawTransfer(argus::Rng& rng) {
  Transfer t{};
  t.from_guardian = static_cast<std::uint32_t>(rng.NextBelow(kGuardians));
  t.to_guardian = t.from_guardian;
  if (rng.NextBool(kTwoParticipants)) {
    t.to_guardian = (t.from_guardian + 1 + static_cast<std::uint32_t>(rng.NextBelow(kGuardians - 1))) %
                    kGuardians;
  }
  t.from = static_cast<std::uint32_t>(rng.NextBelow(kAccountsPerGuardian));
  t.to = static_cast<std::uint32_t>(rng.NextBelow(kAccountsPerGuardian - 1));
  t.to += t.to_guardian == t.from_guardian && t.to >= t.from ? 1 : 0;
  bool overdraw = rng.NextBool(kOverdraw);
  t.amount = overdraw ? kOverdrawAmount : static_cast<std::int64_t>(rng.NextInRange(1, 1000));
  t.early_prepare[0] = rng.NextBool(kEarlyPrepare);
  t.early_prepare[1] = rng.NextBool(kEarlyPrepare);
  return t;
}

struct Names {
  std::uint32_t action, top, get_var, early, restart;
  explicit Names(Tracer& t)
      : action(t.Name("client.action")),
        top(t.Name("tpc.top_action")),
        get_var(t.Name("tpc.get_stable_variable")),
        early(t.Name("tpc.early_prepare")),
        restart(t.Name("recovery.recover")) {}
};

class Driver {
 public:
  Driver(World& world, Model& model, SpanLog* log, const Names* names)
      : world_(world), model_(model), log_(log), names_(names) {}

  // One transfer, maintenance included. Returns false on an unexpected
  // outcome (recorded in `result`).
  bool RunTransfer(const Transfer& t, std::uint64_t op, RunResult& result) {
    ScopedSpan action(log_, names_ ? names_->action : 0, op);
    bool overdrawn = false;
    Result<Guardian::ActionFate> fate = Status::Ok();
    {
      ScopedSpan top(log_, names_ ? names_->top : 0, op);
      fate = world_.RunTopAction(t.from_guardian, [&](ActionId aid) -> Status {
        auto side = [&](std::uint32_t account, std::int64_t delta, bool early_prepare) {
          return [&, account, delta, early_prepare](Guardian& g, ActionContext& ctx) -> Status {
            Result<RecoverableObject*> obj = Status::Ok();
            {
              ScopedSpan get(log_, names_ ? names_->get_var : 0, op);
              obj = g.GetStableVariable(ctx.aid(), AccountName(account));
            }
            if (!obj.ok()) {
              return obj.status();
            }
            Status s = ctx.UpdateObject(obj.value(), [&](Value& v) {
              Value& balance = v.as_record()["balance"];
              if (delta < 0 && balance.as_int() < -delta) {
                overdrawn = true;  // the client refuses; the action aborts
                return;
              }
              balance = Value::Int(balance.as_int() + delta);
            });
            if (s.ok() && early_prepare && !overdrawn) {
              ScopedSpan early(log_, names_ ? names_->early : 0, op);
              s = g.EarlyPrepare(ctx.aid());
            }
            return s;
          };
        };
        Status s = world_.RunAt(aid, t.from_guardian, side(t.from, -t.amount, t.early_prepare[0]));
        if (s.ok() && !overdrawn) {
          s = world_.RunAt(aid, t.to_guardian, side(t.to, t.amount, t.early_prepare[1]));
        }
        if (s.ok() && overdrawn) {
          return Status::InvalidArgument("overdraw");
        }
        return s;
      });
    }
    for (std::uint32_t g = 0; g < kGuardians; ++g) {
      std::int64_t start = log_ ? NowNs() : 0;
      Result<bool> ran = world_.guardians[g]->MaintenanceTick();
      if (!ran.ok()) {
        result.Fail("checkpoint: " + ran.status().ToString());
        return false;
      }
      if (ran.value()) {
        ++checkpoints;
        if (log_ != nullptr) {
          checkpoint_ns += NowNs() - start;
          checkpoint_log_bytes += world_.guardians[g]->recovery().log().durable_size();
        }
      }
    }
    if (!fate.ok()) {
      result.Fail("action: " + fate.status().ToString());
      return false;
    }
    bool committed = fate.value() == Guardian::ActionFate::kCommitted;
    bool expected_commit = t.amount != kOverdrawAmount;
    if (committed != expected_commit || (!committed && !overdrawn) ||
        (!committed && fate.value() != Guardian::ActionFate::kAborted)) {
      result.Fail("transfer of " + std::to_string(t.amount) + " ended " +
                  (committed ? "committed" : "not committed"));
      return false;
    }
    if (committed) {
      model_.balances[t.from_guardian * kAccountsPerGuardian + t.from] -= t.amount;
      model_.balances[t.to_guardian * kAccountsPerGuardian + t.to] += t.amount;
      ++committed_actions;
    }
    return true;
  }

  std::uint64_t committed_actions = 0;
  std::uint64_t checkpoints = 0;
  std::int64_t checkpoint_ns = 0;
  std::uint64_t checkpoint_log_bytes = 0;

 private:
  World& world_;
  Model& model_;
  SpanLog* log_;
  const Names* names_;
};

Status SetUpAccounts(World& world) {
  for (std::uint32_t g = 0; g < kGuardians; ++g) {
    for (std::uint32_t first = 0; first < kAccountsPerGuardian; first += kAccountsPerSetupAction) {
      Result<Guardian::ActionFate> fate = world.RunTopAction(g, [&](ActionId aid) {
        return world.RunAt(aid, g, [&](Guardian& guardian, ActionContext& ctx) -> Status {
          for (std::uint32_t i = first; i < first + kAccountsPerSetupAction; ++i) {
            RecoverableObject* account = ctx.CreateAtomic(
                guardian.heap(),
                AccountValue(kInitialBalance, g * kAccountsPerGuardian + i, kValueBytes));
            Status s = guardian.SetStableVariable(aid, AccountName(i), account);
            if (!s.ok()) {
              return s;
            }
          }
          return Status::Ok();
        });
      });
      if (!fate.ok()) {
        return fate.status();
      }
      if (fate.value() != Guardian::ActionFate::kCommitted) {
        return Status::Corruption("set-up action did not commit");
      }
    }
  }
  return Status::Ok();
}

// A fresh world of kGuardians guardians with their accounts set up and the
// checkpoint policy armed. Every medium passes through a ProbeMedium that
// counts into `totals`.
std::unique_ptr<World> BuildWorld(std::uint64_t seed, MediumTotals& totals, bool timed,
                                  Status* status) {
  auto world = std::make_unique<World>(seed);
  for (std::uint32_t g = 0; g < kGuardians; ++g) {
    argus::RecoverySystemConfig config;
    config.mode = argus::LogMode::kHybrid;
    config.medium_factory = [&totals, timed,
                             inner = argus::MakeMediumFactory(argus::MediumKind::kDuplexed,
                                                              seed * 16 + g)] {
      return std::make_unique<ProbeMedium>(inner(), &totals, timed);
    };
    world->guardians.push_back(
        std::make_unique<Guardian>(GuardianId{g}, config, &world->network));
  }
  *status = SetUpAccounts(*world);
  argus::CheckpointPolicyConfig policy;
  policy.log_growth_bytes = kCheckpointBytes;
  policy.entries_since_checkpoint = 0;
  policy.method = argus::HousekeepingMethod::kSnapshot;
  for (auto& g : world->guardians) {
    g->ConfigureMaintenance(policy);
  }
  return world;
}

Model FreshModel() {
  Model model;
  model.balances.assign(kGuardians * kAccountsPerGuardian, kInitialBalance);
  model.total_at_setup = kInitialBalance * kGuardians * kAccountsPerGuardian;
  return model;
}

// Bytes the guardians' ReadCaches have fetched from their media so far.
std::uint64_t CacheBytesFromMedium(World& world) {
  std::uint64_t bytes = 0;
  for (auto& g : world.guardians) {
    bytes += g->recovery().log().read_cache().StatsSnapshot().bytes_from_medium;
  }
  return bytes;
}

std::vector<std::int64_t> RecoveredBalances(World& world, std::string* error) {
  std::vector<std::int64_t> balances;
  for (std::uint32_t g = 0; g < kGuardians; ++g) {
    for (std::uint32_t i = 0; i < kAccountsPerGuardian; ++i) {
      RecoverableObject* account = world.guardians[g]->CommittedStableVariable(AccountName(i));
      std::optional<std::int64_t> balance =
          account != nullptr ? BalanceOf(account->base_version()) : std::nullopt;
      if (!balance.has_value()) {
        *error = "guardian " + std::to_string(g) + " lost " + AccountName(i);
        return {};
      }
      balances.push_back(*balance);
    }
  }
  return balances;
}

}  // namespace

RunResult RunTwoPcCheckpointed(const Options& options) {
  RunResult result;
  EndToEnd e2e;
  PerLayer layers;
  std::unique_ptr<Tracer> tracer = options.trace ? std::make_unique<Tracer>() : nullptr;
  std::unique_ptr<Names> names = tracer ? std::make_unique<Names>(*tracer) : nullptr;
  SpanLog* log = tracer ? tracer->NewThreadLog() : nullptr;
  MediumTotals totals;
  argus::Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 29);
  std::uint64_t world_seed = options.seed * 1024;

  {
    Status setup = Status::Ok();
    std::unique_ptr<World> world = BuildWorld(world_seed++, totals, options.trace, &setup);
    if (!setup.ok()) {
      result.Fail("set-up: " + setup.ToString());
    }
    Model model = FreshModel();
    Driver warm_up(*world, model, nullptr, nullptr);
    for (std::uint32_t i = 0; i < kWarmUpActions && result.correct; ++i) {
      warm_up.RunTransfer(DrawTransfer(rng), i, result);
    }
    for (int r = 0; r < kRestartsPerRound && result.correct; ++r) {
      for (auto& g : world->guardians) {
        g->Crash();
      }
      for (auto& g : world->guardians) {
        Result<argus::RecoveryInfo> info = g->Restart();
        if (!info.ok()) {
          result.Fail("warm-up restart: " + info.status().ToString());
        }
      }
      world->Pump();
    }
  }
  e2e.setup_s = static_cast<double>(SinceProcessStartNs()) / 1e9;

  std::uint64_t committed = 0, physical = 0, appends = 0, append_bytes = 0, delivered = 0;
  std::int64_t append_ns = 0;
  std::uint64_t checkpoints = 0, checkpoint_log_bytes = 0;
  std::int64_t checkpoint_ns = 0;
  std::uint64_t op = 0;
  std::vector<double> window_us;
  std::int64_t window_ns = 0;
  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
  for (std::uint64_t round = 0; result.correct && (round == 0 || NowNs() < deadline); ++round) {
    Status setup = Status::Ok();
    std::unique_ptr<World> world = BuildWorld(world_seed++, totals, options.trace, &setup);
    if (!setup.ok()) {
      result.Fail("round set-up: " + setup.ToString());
      break;
    }
    Model model = FreshModel();
    Driver driver(*world, model, log, names.get());
    std::uint64_t physical_before = totals.PhysicalBytes();
    std::uint64_t pages_before = totals.modeled_pages;
    std::uint64_t appends_before = totals.append_calls, append_bytes_before = totals.append_bytes;
    std::int64_t append_ns_before = totals.append_ns;
    std::uint64_t delivered_before = world->network.stats().delivered;
    for (std::uint32_t i = 0; i < kRoundActions && result.correct; ++i, ++op) {
      if (i == kRoundActions - kTailActions) {
        for (auto& g : world->guardians) {
          Status s = g->Housekeep(argus::HousekeepingMethod::kSnapshot);
          if (!s.ok()) {
            result.Fail("round checkpoint: " + s.ToString());
          }
        }
      }
      Transfer t = DrawTransfer(rng);
      std::int64_t action_start = NowNs();
      ++result.attempted;
      if (!driver.RunTransfer(t, op, result)) {
        ++result.failed;
        break;
      }
      std::int64_t elapsed = NowNs() - action_start;
      window_ns += elapsed;
      window_us.push_back(static_cast<double>(elapsed) / 1e3);
      if (window_us.size() == kWindowActions) {
        e2e.AddWindow(window_us, window_us.size(), static_cast<double>(window_ns) / 1e9);
        window_us.clear();
        window_ns = 0;
      }
    }
    std::uint64_t round_physical = totals.PhysicalBytes() - physical_before;
    physical += round_physical;
    committed += driver.committed_actions;
    appends += totals.append_calls - appends_before;
    append_bytes += totals.append_bytes - append_bytes_before;
    append_ns += totals.append_ns - append_ns_before;
    delivered += world->network.stats().delivered - delivered_before;
    checkpoints += driver.checkpoints;
    checkpoint_ns += driver.checkpoint_ns;
    checkpoint_log_bytes += driver.checkpoint_log_bytes;
    // The media's physical bytes, retired checkpoint logs included, against
    // the pages that the counted appends cover.
    std::uint64_t modeled = PhysicalBytesOfPages(totals.modeled_pages - pages_before);
    if (options.trace && round_physical != modeled) {
      result.Fail("reconcile: media wrote " + std::to_string(round_physical) +
                  " physical B, their appends cover " + std::to_string(modeled) + " B of pages");
    }

    std::uint64_t read_bytes_before = totals.read_bytes;
    std::uint64_t cache_bytes_before = CacheBytesFromMedium(*world);
    for (int r = 0; r < kRestartsPerRound && result.correct; ++r) {
      for (auto& g : world->guardians) {
        g->Crash();
      }
      std::int64_t restart_start = NowNs();
      for (std::uint32_t g = 0; g < kGuardians && result.correct; ++g) {
        ScopedSpan restart(log, names ? names->restart : 0, g);
        Result<argus::RecoveryInfo> info = world->guardians[g]->Restart();
        if (!info.ok()) {
          result.Fail("restart: " + info.status().ToString());
        }
      }
      e2e.restart_s.push_back(static_cast<double>(NowNs() - restart_start) / 1e9);
      if (!result.correct) {
        break;
      }
      world->Pump();
      std::string error;
      std::vector<std::int64_t> balances = RecoveredBalances(*world, &error);
      for (const std::string& why :
           {error, CheckBalances(balances, model), CheckTotal(balances, model)}) {
        if (!why.empty()) {
          result.Fail("round " + std::to_string(round) + " restart " + std::to_string(r) + ": " +
                      why);
        }
      }
    }
    if (options.trace && result.correct) {
      std::uint64_t read = totals.read_bytes - read_bytes_before;
      std::uint64_t fetched = CacheBytesFromMedium(*world) - cache_bytes_before;
      if (read != fetched) {
        result.Fail("reconcile: media read " + std::to_string(read) +
                    " B during restarts, ReadCaches fetched " + std::to_string(fetched) + " B");
      }
    }
  }

  double commits = static_cast<double>(std::max<std::uint64_t>(committed, 1));
  e2e.medium_bytes_per_commit = static_cast<double>(physical) / commits;
  layers.tpc_messages_per_action =
      static_cast<double>(delivered) / static_cast<double>(std::max<std::uint64_t>(op, 1));
  layers.log_forces_per_commit = static_cast<double>(appends) / commits;
  layers.stable_append_bytes_per_commit = static_cast<double>(append_bytes) / commits;
  if (appends != 0) {
    layers.stable_append_ns = static_cast<double>(append_ns) / static_cast<double>(appends);
  }
  layers.recovery_checkpoints = static_cast<double>(checkpoints);
  if (checkpoints != 0) {
    layers.recovery_checkpoint_ns =
        static_cast<double>(checkpoint_ns) / static_cast<double>(checkpoints);
    layers.recovery_checkpoint_log_bytes =
        static_cast<double>(checkpoint_log_bytes) / static_cast<double>(checkpoints);
  }

  if (tracer) {
    layers.tpc_top_action_ns = tracer->MeanNs("tpc.top_action");
    layers.tpc_get_stable_variable_ns = tracer->MeanNs("tpc.get_stable_variable");
    layers.tpc_early_prepare_ns = tracer->MeanNs("tpc.early_prepare");
    layers.recovery_recover_ns = tracer->MeanNs("recovery.recover");
    if (!tracer->WriteOut(options.work_dir + "/twopc_checkpointed-seed" + std::to_string(options.seed))) {
      result.Fail("could not write the span dump");
    }
  }
  EmitMetrics(options, e2e, layers, result);
  return result;
}

}  // namespace perfbench
