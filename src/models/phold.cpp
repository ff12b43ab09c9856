#include "models/phold.hpp"

#include <cmath>

#include "core/assert.hpp"

namespace nicwarp::models {

namespace {

using warped::CloneableState;
using warped::EventMsg;
using warped::ObjectContext;
using warped::SimulationObject;

struct PholdState : CloneableState<PholdState> {
  std::int64_t handled{0};
};

class PholdObject final : public SimulationObject {
 public:
  PholdObject(ObjectId id, const PholdParams& p)
      : SimulationObject(id, "phold" + std::to_string(id),
                         std::make_unique<PholdState>()),
        p_(p) {}

  void initialize(ObjectContext& ctx) override {
    for (std::int64_t i = 0; i < p_.population; ++i) {
      ctx.send(id(), VirtualTime{1 + delay(ctx)}, {});
    }
  }

  void execute(ObjectContext& ctx, const EventMsg& ev) override {
    auto& st = state_as<PholdState>();
    st.mut(st.handled) += 1;
    ctx.fold_signature(
        static_cast<std::int64_t>(ev.id + static_cast<std::uint64_t>(ctx.now().t)));
    const VirtualTime next = ctx.now() + delay(ctx);
    if (next.t >= p_.horizon) return;
    const auto dst = static_cast<ObjectId>(ctx.rng().uniform(0, p_.objects - 1));
    ctx.send(dst, next, {});
  }

 private:
  std::int64_t delay(ObjectContext& ctx) const {
    const double d = ctx.rng().exponential(static_cast<double>(p_.mean_delay));
    return 1 + static_cast<std::int64_t>(d);
  }

  PholdParams p_;
};

}  // namespace

BuiltModel build_phold(const PholdParams& p, std::uint32_t num_nodes) {
  NW_CHECK(p.objects >= 1);
  BuiltModel m;
  m.partition = std::make_shared<warped::Partition>();
  m.per_node.resize(num_nodes);
  for (std::int64_t i = 0; i < p.objects; ++i) {
    const auto id = static_cast<ObjectId>(i);
    const auto node = static_cast<NodeId>(id % num_nodes);
    m.partition->place(id, node);
    m.per_node[node].push_back(std::make_unique<PholdObject>(id, p));
  }
  return m;
}

}  // namespace nicwarp::models
