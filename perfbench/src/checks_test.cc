// Test of the benchmark's own output checks: on a real recovered guardian,
// the true model passes every check, and a model with one altered balance, a
// wrong set-up total or a committed count off by one makes the matching check
// report the run incorrect.
//
// Run: python3 perfbench/run.py --self-test   (exit 0 = every case behaved)

#include <cstdio>

#include "perfbench/src/bank.h"

namespace {

using argus::ActionContext;
using argus::ActionId;
using argus::GuardianId;
using argus::RecoverySystem;
using argus::Status;
using argus::VolatileHeap;
using perfbench::Model;

int failures = 0;

void Expect(bool passed, const std::string& check, bool want_pass, const std::string& detail) {
  if (passed != want_pass) {
    ++failures;
    std::fprintf(stderr, "FAIL %s: expected %s, got %s (%s)\n", check.c_str(),
                 want_pass ? "pass" : "fail", passed ? "pass" : "fail", detail.c_str());
  } else {
    std::fprintf(stderr, "ok   %s %s\n", check.c_str(), want_pass ? "passes" : "fails");
  }
}

}  // namespace

int main() {
  constexpr std::uint32_t kDirs = 2;
  constexpr std::uint32_t kPerDir = 8;
  argus::RecoverySystemConfig config;
  config.mode = argus::LogMode::kHybrid;
  config.medium_factory = [] { return std::make_unique<argus::InMemoryStableMedium>(); };

  auto heap = std::make_unique<VolatileHeap>();
  auto rs = std::make_unique<RecoverySystem>(config, heap.get());
  std::vector<argus::RecoverableObject*> accounts;
  std::uint64_t sequence = 0;
  for (std::uint32_t d = 0; d < kDirs; ++d) {
    Status s = perfbench::CreateDirectory(*rs, *heap, ActionId{GuardianId{0}, sequence++}, d,
                                          kPerDir, 100, 64, accounts);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  Model model;
  model.balances.assign(kDirs * kPerDir, 100);
  model.total_at_setup = 100 * kDirs * kPerDir;
  for (std::uint32_t i = 0; i < 12; ++i) {
    std::uint32_t from = i % (kDirs * kPerDir);
    std::uint32_t to = (i * 5 + 3) % (kDirs * kPerDir);
    if (from == to) {
      continue;
    }
    ActionContext ctx(ActionId{GuardianId{0}, sequence++});
    Status s = perfbench::Move(ctx, accounts[from], accounts[to], 7 + i);
    if (s.ok()) {
      s = rs->Prepare(ctx.aid(), ctx.TakeMos());
    }
    if (s.ok()) {
      s = rs->Commit(ctx.aid());
    }
    if (!s.ok()) {
      std::fprintf(stderr, "transfer failed: %s\n", s.ToString().c_str());
      return 1;
    }
    ctx.CommitVolatile(*heap);
    model.balances[from] -= 7 + i;
    model.balances[to] += 7 + i;
  }

  std::unique_ptr<argus::StableLog> log = rs->TakeLog();
  rs.reset();
  heap = std::make_unique<VolatileHeap>();
  rs = std::make_unique<RecoverySystem>(config, heap.get(), std::move(log));
  argus::Result<argus::RecoveryInfo> info = rs->Recover();
  if (!info.ok()) {
    std::fprintf(stderr, "recover failed: %s\n", info.status().ToString().c_str());
    return 1;
  }
  std::string error;
  std::vector<std::int64_t> recovered = perfbench::ReadDirectoryBalances(*heap, kDirs, &error);
  Expect(error.empty(), "read recovered balances", true, error);

  std::string why = perfbench::CheckBalances(recovered, model);
  Expect(why.empty(), "balances against the true model", true, why);
  why = perfbench::CheckTotal(recovered, model);
  Expect(why.empty(), "total against the true set-up total", true, why);
  why = perfbench::CheckCommitted(info.value().pt, sequence);
  Expect(why.empty(), "committed count against the true count", true, why);

  Model altered = model;
  altered.balances[5] += 1;
  why = perfbench::CheckBalances(recovered, altered);
  Expect(why.empty(), "balances against a model with one altered balance", false, why);

  Model wrong_total = model;
  wrong_total.total_at_setup += 1;
  why = perfbench::CheckTotal(recovered, wrong_total);
  Expect(why.empty(), "total against a set-up total off by one", false, why);

  why = perfbench::CheckCommitted(info.value().pt, sequence + 1);
  Expect(why.empty(), "committed count one too high", false, why);
  why = perfbench::CheckCommitted(info.value().pt, sequence - 1);
  Expect(why.empty(), "committed count one too low", false, why);

  // A recovered state that lost one transfer's credit: the balance and total
  // checks both catch it.
  std::vector<std::int64_t> lost = recovered;
  lost[3] -= 1;
  why = perfbench::CheckBalances(lost, model);
  Expect(why.empty(), "balances of a state with one lost credit", false, why);
  why = perfbench::CheckTotal(lost, model);
  Expect(why.empty(), "total of a state with one lost credit", false, why);

  std::fprintf(stderr, "%s\n", failures == 0 ? "checks_test: all cases behaved"
                                             : "checks_test: FAILED");
  return failures == 0 ? 0 : 1;
}
