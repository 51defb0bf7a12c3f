#include "rt/dependence.h"

#include <algorithm>

#include "support/check.h"

namespace cr::rt {

std::vector<sim::Event> DependenceTracker::record(uint64_t op_id,
                                                  const Requirement& req,
                                                  sim::Event completion,
                                                  Capture* capture) {
  std::vector<sim::Event> preconditions;
  const RegionNode& node = forest_->region(req.region);
  const support::IntervalSet& pts = node.ispace.points();
  const bool can_prune = privilege_writes(req.privilege);
  support::Interval query{0, 0};
  if (!pts.empty()) query = pts.bounds();

  for (FieldId f : req.fields) {
    FieldState& st = users_[{node.root, f}];
    // The exhaustive scan tests every live non-self user; charge that to
    // the simulated master regardless of what the index skips.
    const uint64_t self_live = st.last_op == op_id ? st.last_op_live : 0;
    pairs_scanned_ += st.alive - self_live;

    // The geometric candidate set is a superset of every exactly-
    // overlapping user (bounding extents are conservative), so the
    // conflicts found — and the epochs pruned — match the linear scan's
    // exactly.
    if (!linear_ && !pts.empty()) ++index_queries_;
    collect_candidates(st, query);

    for (uint32_t idx : cand_) {
      User& u = st.slots[idx];
      // Tombstones, and an operation never depending on itself (e.g. a
      // copy registering both its read and write requirements).
      if (!u.alive || u.op_id == op_id) continue;
      ++pairs_tested_;
      const bool conflict =
          privileges_conflict(u.privilege, u.redop, req.privilege,
                              req.redop) &&
          forest_->may_alias(u.region, req.region) &&
          forest_->overlaps_exact(u.region, req.region);
      if (!conflict) continue;
      ++dependences_found_;
      // One precondition per predecessor: the same completion reached
      // via several fields would only make Event::merge re-wait on it.
      if (std::find(preconditions.begin(), preconditions.end(),
                    u.completion) == preconditions.end()) {
        preconditions.push_back(u.completion);
        if (capture != nullptr) capture->dep_ops.push_back(u.op_id);
      }
      // Epoch pruning: a writer orders every later conflicting access to
      // the points it overwrites, so a prior user retires once writers
      // have overwritten all of its points. Only writers dominate (a
      // reader covering a writer must not hide it from later readers).
      if (!can_prune) continue;
      const Coverage c = cover(st, u, pts);
      if (c != Coverage::kNone && capture != nullptr) {
        capture->covers.push_back({f, u.op_id, u.region, u.privilege,
                                   u.redop, c == Coverage::kRetired});
      }
    }

    register_user(st, op_id, req, completion, query);
    maybe_rebuild(st);
  }
  return preconditions;
}

uint64_t DependenceTracker::replay(uint64_t op_id, const Requirement& req,
                                   sim::Event completion,
                                   const Capture& outcome, uint64_t found,
                                   std::vector<sim::Event>& preconditions) {
  const RegionNode& node = forest_->region(req.region);
  const support::IntervalSet& pts = node.ispace.points();
  support::Interval query{0, 0};
  if (!pts.empty()) query = pts.bounds();

  const std::vector<uint64_t>& deps = outcome.dep_ops;
  const std::vector<Capture::Cover>& covers = outcome.covers;
  const size_t base = preconditions.size();
  preconditions.resize(base + deps.size());
  resolved_.assign(deps.size(), false);
  size_t unresolved = deps.size();

  uint64_t scanned = 0;
  size_t k = 0;  // next coverage step; record() emits them field by field
  for (FieldId f : req.fields) {
    FieldState& st = users_[{node.root, f}];
    // The virtual-time charge mirrors record(): what the exhaustive scan
    // would test against the live state at this point, before this
    // call's own coverage takes effect.
    const uint64_t self_live = st.last_op == op_id ? st.last_op_live : 0;
    scanned += st.alive - self_live;

    // Every predecessor overlaps the requirement, so it is among the
    // candidates of a field it was found through. This field's coverage
    // steps are a subsequence of the candidates in slot order, so one
    // forward walk also matches each step to its user (users with the
    // same identity are registered back to back and always share their
    // coverage, so the first live match is the right one).
    auto covers_here = [&] {
      return k < covers.size() && covers[k].field == f;
    };
    if (unresolved > 0 || covers_here()) {
      collect_candidates(st, query);
      for (uint32_t idx : cand_) {
        if (unresolved == 0 && !covers_here()) break;
        User& u = st.slots[idx];
        if (!u.alive || u.op_id == op_id) continue;
        // Resolve before covering: this step may retire the user.
        for (size_t d = 0; unresolved > 0 && d < deps.size(); ++d) {
          if (deps[d] != u.op_id || resolved_[d]) continue;
          preconditions[base + d] = u.completion;
          resolved_[d] = true;
          --unresolved;
        }
        if (!covers_here()) continue;
        const Capture::Cover& c = covers[k];
        if (u.op_id != c.op_id || u.region != c.region ||
            u.privilege != c.privilege || u.redop != c.redop) {
          continue;
        }
        const Coverage got = cover(st, u, pts);
        CR_CHECK_MSG(got != Coverage::kNone &&
                         (got == Coverage::kRetired) == c.retired,
                     "trace replay: coverage diverged from the captured "
                     "iteration");
        ++k;
      }
      CR_CHECK_MSG(!covers_here(),
                   "trace replay covered a user that is not live");
    }

    register_user(st, op_id, req, completion, query);
    maybe_rebuild(st);
  }
  CR_CHECK_MSG(k == covers.size(),
               "trace replay covered a field the requirement lacks");
  CR_CHECK_MSG(unresolved == 0,
               "trace replay: a predecessor is not a live user");
  pairs_scanned_ += scanned;
  dependences_found_ += found;
  return scanned;
}

void DependenceTracker::collect_candidates(FieldState& st,
                                           support::Interval query) {
  cand_.clear();
  if (linear_) {
    for (size_t i = 0; i < st.slots.size(); ++i) {
      cand_.push_back(static_cast<uint32_t>(i));
    }
    return;
  }
  if (query.empty()) return;
  hits_.clear();
  st.tree.query(query, hits_);
  cand_.assign(hits_.begin(), hits_.end());
  st.tail_touched += static_cast<uint64_t>(st.slots.size() - st.indexed_end);
  for (size_t i = st.indexed_end; i < st.slots.size(); ++i) {
    const support::Interval& b = st.slots[i].bounds;
    if (b.lo < query.hi && query.lo < b.hi) {
      cand_.push_back(static_cast<uint32_t>(i));
    }
  }
  std::sort(cand_.begin(), cand_.end());
}

DependenceTracker::Coverage DependenceTracker::cover(
    FieldState& st, User& u, const support::IntervalSet& pts) {
  // A conflict implies the writer overlaps the user's region, so only an
  // already partially covered user can come through untouched.
  if (!u.uncovered.empty() && !u.uncovered.overlaps(pts)) {
    return Coverage::kNone;
  }
  support::IntervalSet left =
      (u.uncovered.empty() ? forest_->region(u.region).ispace.points()
                           : u.uncovered)
          .set_subtract(pts);
  if (!left.empty()) {
    u.uncovered = std::move(left);
    return Coverage::kPartial;
  }
  u.uncovered = {};
  u.alive = false;
  --st.alive;
  ++st.dead;
  return Coverage::kRetired;
}

void DependenceTracker::register_user(FieldState& st, uint64_t op_id,
                                      const Requirement& req,
                                      sim::Event completion,
                                      support::Interval bounds) {
  User nu;
  nu.op_id = op_id;
  nu.privilege = req.privilege;
  nu.redop = req.redop;
  nu.region = req.region;
  nu.completion = completion;
  nu.bounds = bounds;
  st.slots.push_back(std::move(nu));
  ++st.alive;
  if (st.last_op == op_id) {
    ++st.last_op_live;
  } else {
    st.last_op = op_id;
    st.last_op_live = 1;
  }
}

void DependenceTracker::maybe_rebuild(FieldState& st) {
  // Staleness = users the index doesn't cover well: appends past
  // indexed_end (scanned linearly per query) plus tombstones (returned
  // by queries, then skipped). Rebuilding once staleness reaches an
  // eighth of the live list amortizes to O(log n) per record. That
  // ratio alone is not a bound on tail work, though: with heavy
  // tombstone churn `alive` stays large while a short unindexed tail is
  // rescanned by every query, so the second trigger caps *accumulated*
  // tail scans — once they have cost as much as one pass over the live
  // list (the price of a rebuild), rebuilding amortizes to O(1) extra.
  // Rebuild timing is host-side only: candidates are live slots whose
  // bounds overlap the query either way, so pairs_tested and the
  // dependence set are unaffected.
  const uint64_t stale =
      static_cast<uint64_t>(st.slots.size() - st.indexed_end) + st.dead;
  const bool ratio_stale = stale > 64 && stale * 8 >= st.alive;
  const bool tail_hot = st.tail_touched > 64 && st.tail_touched >= st.alive;
  if (!ratio_stale && !tail_hot) return;
  st.tail_touched = 0;
  // Compact tombstones. The indexed prefix's sorted order survives in the
  // old tree, so remember where each of its slots moved (kGone for
  // tombstones) to reuse that order instead of re-sorting it.
  constexpr uint32_t kGone = UINT32_MAX;
  const bool remap = st.dead > 0 && !linear_;
  size_t indexed_live = st.indexed_end;
  if (remap) {
    remap_.resize(st.indexed_end);
    uint32_t live = 0;
    for (size_t i = 0; i < st.indexed_end; ++i) {
      remap_[i] = st.slots[i].alive ? live++ : kGone;
    }
    indexed_live = live;
  }
  if (st.dead > 0) {
    std::erase_if(st.slots, [](const User& u) { return !u.alive; });
    st.dead = 0;
  }
  CR_DCHECK(st.slots.size() == st.alive);
  if (linear_) {
    // Compaction only (bounds memory); the reference mode never queries.
    st.indexed_end = 0;
    return;
  }
  // O(n + t log t) for a tail of t appends: keep the old entries in
  // order (dropping tombstones), sort only the tail, and merge.
  std::vector<IntervalTree::Entry> entries;
  entries.reserve(st.slots.size());
  for (const IntervalTree::Entry& e : st.tree.entries()) {
    const uint32_t to = remap ? remap_[e.payload] : e.payload;
    if (to != kGone) entries.push_back({e.iv, to});
  }
  const size_t sorted_end = entries.size();
  for (size_t i = indexed_live; i < st.slots.size(); ++i) {
    if (!st.slots[i].bounds.empty()) {
      entries.push_back({st.slots[i].bounds, i});
    }
  }
  const auto mid = entries.begin() + static_cast<ptrdiff_t>(sorted_end);
  std::sort(mid, entries.end(), IntervalTree::Before{});
  std::inplace_merge(entries.begin(), mid, entries.end(),
                     IntervalTree::Before{});
  st.tree = IntervalTree::from_sorted(std::move(entries));
  st.indexed_end = st.slots.size();
  ++index_rebuilds_;
}

void DependenceTracker::reset() {
  users_.clear();
  pairs_tested_ = 0;
  pairs_scanned_ = 0;
  dependences_found_ = 0;
  index_queries_ = 0;
  index_rebuilds_ = 0;
}

}  // namespace cr::rt
