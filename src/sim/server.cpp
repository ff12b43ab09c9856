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

void Server::submit(SimTime cost, CompletionFn on_complete) {
  NW_CHECK_MSG(cost.ns >= 0, "negative job cost");
  submit_dynamic([cost] { return cost; }, std::move(on_complete));
}

void Server::submit_dynamic(WorkFn work, CompletionFn on_complete) {
  NW_CHECK(static_cast<bool>(work));
  queue_.push_back(Job{std::move(work), std::move(on_complete)});
  if (!busy_) start_next();
}

void Server::start_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  const SimTime cost = queue_.front().work();
  NW_CHECK_MSG(cost.ns >= 0, "job returned negative cost");
  engine_.schedule(cost, [this, cost] { finish(cost); });
}

void Server::finish(SimTime cost) {
  if (stats_ != nullptr) {
    jobs_.add(1);
    busy_ns_.add(cost.ns);
  }
  // The completion callback may submit follow-on work; run it before
  // starting the next queued job so submission order within a completion
  // is preserved deterministically.
  CompletionFn fn = std::move(queue_.front().on_complete);
  queue_.pop_front();
  if (fn) fn();
  start_next();
}

}  // namespace nicwarp::sim
