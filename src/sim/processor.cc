#include "sim/processor.h"

#include <memory>
#include <utility>

#include "sim/simulator.h"
#include "support/check.h"
#include "support/trace.h"

namespace cr::sim {

namespace {
// What a spawn carries beyond the virtual-time essentials, allocated only
// when present: most spawns have no kernel and, untraced, no tag.
struct SpawnCold {
  std::function<void()> work;
  support::TraceTag tag;
};
}  // namespace

Event Processor::spawn(Event precondition, Time duration,
                       std::function<void()> work, support::TraceTag tag) {
  UserEvent done(*sim_);
  std::unique_ptr<SpawnCold> cold;
  if (work || !tag.empty() || tag.category != support::TraceCategory::kCompute) {
    cold.reset(new SpawnCold{std::move(work), std::move(tag)});
  }
  auto pickup = [this, duration, done, pre_uid = precondition.uid(),
                 cold = std::move(cold)](Time ready) mutable {
    // FIFO in ready order: the core picks this item up when it next goes
    // idle at or after `ready`.
    // This pickup mutates the core's schedule (next_free_, busy_): under
    // the windowed backend it must run either on the owning node's
    // worker or in a serial phase. A pickup arriving on another node's
    // worker means the spawn's precondition was wired to trigger
    // remotely — a host race waiting to happen.
    if (sim_->windowed()) {
      const uint32_t aff = Simulator::debug_affinity();
      CR_CHECK_MSG(aff == kNoAffinity || aff == id_.node,
                   "processor spawn picked up on a foreign node's worker");
    }
    const Time start = std::max(ready, next_free_);
    // Scenario scaling (heterogeneous speed, injected slowdowns): a pure
    // function of the virtual start time, so the effective duration is
    // identical under every worker count.
    const Time eff = perf_ != nullptr ? perf_->scale(start, duration)
                                      : duration;
    const Time end = start + eff;
    next_free_ = end;
    busy_ += eff;
    if (support::Tracer* t = sim_->tracer()) {
      support::TraceTag tag = cold ? std::move(cold->tag) : support::TraceTag{};
      const support::SpanId span = t->add_span(
          id_.node, id_.core, tag.category,
          tag.empty() ? "work" : std::move(tag.name), start, end);
      t->edge(pre_uid, span);
      t->bind(done.event().uid(), span);
    }
    // Both entries are affine to this core's node: the work side effects
    // and the completion cascade (which picks up queued successors on
    // this node) must execute on the node's worker even when the pickup
    // itself ran in a serial phase (e.g. a barrier release).
    if (cold && cold->work) {
      sim_->schedule_at_affine(start, id_.node,
                               [w = std::move(cold->work)] { w(); });
    }
    auto complete = [done]() mutable { done.trigger(); };
    static_assert(Callback<void()>::fits_inline<decltype(complete)>);
    sim_->schedule_at_affine(end, id_.node, std::move(complete));
  };
  static_assert(Callback<void(Time)>::fits_inline<decltype(pickup)>);
  precondition.subscribe(std::move(pickup));
  return done.event();
}

}  // namespace cr::sim
