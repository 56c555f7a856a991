// The benchmark's bank: accounts as recoverable objects, the benchmark's own
// model of every balance, and the output checks that compare a recovered
// state against that model.
//
// Single-guardian banks (commit_duplexed, restart_file) hang their accounts
// off the stable-variables root in directories: root["d<k>"] is an atomic
// object holding a list of references to accounts. The 2PC bank binds each
// account to its own stable variable "a<i>".

#ifndef PERFBENCH_SRC_BANK_H_
#define PERFBENCH_SRC_BANK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/object/action_context.h"
#include "src/recovery/recovery_system.h"

namespace perfbench {

// An account's value: {balance, owner}, the owner string padding the
// flattened value to about `value_bytes`.
argus::Value AccountValue(std::int64_t balance, std::uint64_t account, std::size_t value_bytes);
// The balance field of an account value (nullopt when the shape is wrong).
std::optional<std::int64_t> BalanceOf(const argus::Value& value);

// The benchmark's own model of the balances, updated in staging order.
struct Model {
  std::vector<std::int64_t> balances;
  std::int64_t total_at_setup = 0;
};

// ---- Output checks ----
//
// Each returns an empty string when the check passes, else why it failed.

// Every recovered balance equals the model's.
std::string CheckBalances(const std::vector<std::int64_t>& recovered, const Model& model);
// Transfers conserve money: the recovered balances sum to the set-up total.
std::string CheckTotal(const std::vector<std::int64_t>& recovered, const Model& model);
// The recovered participant table holds exactly `expected` committed actions.
std::string CheckCommitted(const argus::ParticipantTable& pt, std::uint64_t expected);

// ---- Single-guardian bank ----

// One committed action that creates `count` accounts in directory `dir`
// (forced before returning). Appends the new accounts to `accounts`.
argus::Status CreateDirectory(argus::RecoverySystem& rs, argus::VolatileHeap& heap,
                              argus::ActionId aid, std::uint32_t dir, std::uint32_t count,
                              std::int64_t balance, std::size_t value_bytes,
                              std::vector<argus::RecoverableObject*>& accounts);

// Walks root -> directories -> accounts of a (recovered) heap and returns the
// balances in account order; an empty vector plus `error` on a bad shape.
std::vector<std::int64_t> ReadDirectoryBalances(const argus::VolatileHeap& heap,
                                                std::uint32_t dirs, std::string* error);

// Within `ctx`, moves `amount` from one account to another.
argus::Status Move(argus::ActionContext& ctx, argus::RecoverableObject* from,
                   argus::RecoverableObject* to, std::int64_t amount);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BANK_H_
