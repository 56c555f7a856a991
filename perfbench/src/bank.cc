#include "perfbench/src/bank.h"

namespace perfbench {

using argus::Value;

Value AccountValue(std::int64_t balance, std::uint64_t account, std::size_t value_bytes) {
  std::string owner = "owner-" + std::to_string(account) + "-";
  // Flattening adds field names, tags and lengths: about 40 bytes.
  std::size_t want = value_bytes > 40 ? value_bytes - 40 : 0;
  while (owner.size() < want) {
    owner.push_back(static_cast<char>('a' + (account + owner.size()) % 26));
  }
  return Value::OfRecord({{"balance", Value::Int(balance)}, {"owner", Value::Str(owner)}});
}

std::optional<std::int64_t> BalanceOf(const Value& value) {
  if (!value.is_record()) {
    return std::nullopt;
  }
  auto it = value.as_record().find("balance");
  if (it == value.as_record().end() || !it->second.is_int()) {
    return std::nullopt;
  }
  return it->second.as_int();
}

std::string CheckBalances(const std::vector<std::int64_t>& recovered, const Model& model) {
  if (recovered.size() != model.balances.size()) {
    return "recovered " + std::to_string(recovered.size()) + " accounts, model has " +
           std::to_string(model.balances.size());
  }
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    if (recovered[i] != model.balances[i]) {
      return "account " + std::to_string(i) + " recovered balance " +
             std::to_string(recovered[i]) + ", model says " + std::to_string(model.balances[i]);
    }
  }
  return "";
}

std::string CheckTotal(const std::vector<std::int64_t>& recovered, const Model& model) {
  std::int64_t sum = 0;
  for (std::int64_t balance : recovered) {
    sum += balance;
  }
  if (sum != model.total_at_setup) {
    return "recovered balances sum to " + std::to_string(sum) + ", set up with " +
           std::to_string(model.total_at_setup);
  }
  return "";
}

std::string CheckCommitted(const argus::ParticipantTable& pt, std::uint64_t expected) {
  std::uint64_t committed = 0;
  for (const auto& [aid, state] : pt) {
    if (state == argus::ParticipantState::kCommitted) {
      ++committed;
    }
  }
  if (committed != expected) {
    return "recovered " + std::to_string(committed) + " committed actions, benchmark committed " +
           std::to_string(expected);
  }
  return "";
}

argus::Status CreateDirectory(argus::RecoverySystem& rs, argus::VolatileHeap& heap,
                              argus::ActionId aid, std::uint32_t dir, std::uint32_t count,
                              std::int64_t balance, std::size_t value_bytes,
                              std::vector<argus::RecoverableObject*>& accounts) {
  argus::ActionContext ctx(aid);
  Value::List refs;
  refs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    argus::RecoverableObject* account =
        ctx.CreateAtomic(heap, AccountValue(balance, accounts.size(), value_bytes));
    accounts.push_back(account);
    refs.push_back(Value::Ref(account));
  }
  argus::RecoverableObject* directory = ctx.CreateAtomic(heap, Value::OfList(std::move(refs)));
  argus::Status s = ctx.UpdateObject(heap.root(), [&](Value& root) {
    root.as_record()["d" + std::to_string(dir)] = Value::Ref(directory);
  });
  if (!s.ok()) {
    return s;
  }
  argus::Result<argus::LogAddress> prepared = rs.StagePrepare(aid, ctx.TakeMos());
  if (!prepared.ok()) {
    return prepared.status();
  }
  argus::Result<argus::LogAddress> committed = rs.StageCommit(aid);
  if (!committed.ok()) {
    return committed.status();
  }
  ctx.CommitVolatile(heap);
  return rs.WaitDurable(committed.value());
}

std::vector<std::int64_t> ReadDirectoryBalances(const argus::VolatileHeap& heap,
                                                std::uint32_t dirs, std::string* error) {
  std::vector<std::int64_t> balances;
  const Value& root = heap.root()->base_version();
  if (!root.is_record()) {
    *error = "root is not a record";
    return {};
  }
  for (std::uint32_t d = 0; d < dirs; ++d) {
    auto it = root.as_record().find("d" + std::to_string(d));
    if (it == root.as_record().end() || !it->second.is_ref()) {
      *error = "directory d" + std::to_string(d) + " missing";
      return {};
    }
    const Value& list = it->second.as_ref()->base_version();
    if (!list.is_list()) {
      *error = "directory d" + std::to_string(d) + " is not a list";
      return {};
    }
    for (const Value& ref : list.as_list()) {
      std::optional<std::int64_t> balance =
          ref.is_ref() ? BalanceOf(ref.as_ref()->base_version()) : std::nullopt;
      if (!balance.has_value()) {
        *error = "account " + std::to_string(balances.size()) + " unreadable";
        return {};
      }
      balances.push_back(*balance);
    }
  }
  return balances;
}

argus::Status Move(argus::ActionContext& ctx, argus::RecoverableObject* from,
                   argus::RecoverableObject* to, std::int64_t amount) {
  auto add = [](std::int64_t delta) {
    return [delta](Value& v) {
      Value& balance = v.as_record()["balance"];
      balance = Value::Int(balance.as_int() + delta);
    };
  };
  argus::Status s = ctx.UpdateObject(from, add(-amount));
  if (!s.ok()) {
    return s;
  }
  return ctx.UpdateObject(to, add(amount));
}

}  // namespace perfbench
