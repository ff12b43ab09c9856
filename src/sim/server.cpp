#include "sim/server.hpp"

#include "core/assert.hpp"

namespace nicwarp::sim {

Server::Server(Engine& engine, std::string name, StatsRegistry* stats)
    : engine_(engine), name_(std::move(name)), stats_(stats) {
  if (stats_ != nullptr) {
    jobs_ = CounterHandle(*stats_, name_.c_str(), ".jobs");
    busy_ns_ = CounterHandle(*stats_, name_.c_str(), ".busy_ns");
  }
}

void Server::submit(SimTime cost, Owner& owner, std::uint32_t stage, std::uint64_t arg) {
  NW_CHECK_MSG(cost.ns >= 0, "negative job cost");
  enqueue(&owner, arg, cost.ns, stage);
}

void Server::submit_dynamic(Owner& owner, std::uint32_t stage, std::uint64_t arg) {
  enqueue(&owner, arg, -1, stage);
}

void Server::submit(SimTime cost, CompletionFn on_complete) {
  NW_CHECK_MSG(cost.ns >= 0, "negative job cost");
  const std::uint64_t arg =
      on_complete ? store_closure(nullptr, std::move(on_complete)) : kNoClosure;
  enqueue(nullptr, arg, cost.ns, 0);
}

void Server::submit_dynamic(WorkFn work, CompletionFn on_complete) {
  NW_CHECK(static_cast<bool>(work));
  enqueue(nullptr, store_closure(std::move(work), std::move(on_complete)), -1, 0);
}

std::uint64_t Server::store_closure(WorkFn work, CompletionFn on_complete) {
  if (!free_closures_.empty()) {
    const std::uint32_t idx = free_closures_.back();
    free_closures_.pop_back();
    closures_[idx] = Closure{std::move(work), std::move(on_complete)};
    return idx;
  }
  NW_CHECK_MSG(closures_.size() < static_cast<std::size_t>(UINT32_MAX),
               "closure slab overflow");
  closures_.push_back(Closure{std::move(work), std::move(on_complete)});
  return closures_.size() - 1;
}

void Server::enqueue(Owner* owner, std::uint64_t arg, std::int64_t cost_ns,
                     std::uint32_t stage) {
  queue_.push_back(Job{owner, arg, cost_ns, stage});
  // From the submitted values: reloading the slot just written as a 32-byte
  // copy would stall on store forwarding.
  if (!busy_) start(owner, arg, cost_ns, stage);
}

// Takes the job's fields by value, not a reference into the ring: a start
// hook may submit to this server (NIC firmware emit -> pump_tx -> nic_cpu_),
// and a regrowing ring would move the job out from under it.
void Server::start(Owner* owner, std::uint64_t arg, std::int64_t cost_ns,
                   std::uint32_t stage) {
  busy_ = true;
  SimTime cost{cost_ns};
  if (cost_ns < 0) {
    if (owner != nullptr) {
      cost = owner->start_job(stage, arg);
    } else {
      // Moved out for the same reason: the work may store another closure.
      WorkFn work = std::move(closures_[arg].work);
      cost = work();
    }
    NW_CHECK_MSG(cost.ns >= 0, "job returned negative cost");
  }
  engine_.schedule(cost, *this, static_cast<std::uint64_t>(cost.ns));
}

void Server::fire(std::uint64_t arg) {
  if (stats_ != nullptr) {
    jobs_.add(1);
    busy_ns_.add(static_cast<std::int64_t>(arg));
  }
  // The completion may submit follow-on work; run it before starting the
  // next queued job so submission order within a completion is preserved
  // deterministically.
  const Job job = queue_.pop_front();
  if (job.owner != nullptr) {
    job.owner->finish_job(job.stage, job.arg);
  } else if (job.arg != kNoClosure) {
    const auto idx = static_cast<std::uint32_t>(job.arg);
    CompletionFn fn = std::move(closures_[idx].on_complete);
    free_closures_.push_back(idx);
    if (fn) fn();
  }
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  const Job& next = queue_.front();
  start(next.owner, next.arg, next.cost_ns, next.stage);
}

}  // namespace nicwarp::sim
