#include "exec/trace_replay.h"

#include <utility>

#include "support/check.h"

namespace cr::exec {

uint64_t requirement_fingerprint(uint64_t tag, uint64_t extra,
                                 const rt::Requirement& req) {
  uint64_t h = support::hash_mix(tag + 0x517cc1b727220a95ull);
  h = support::hash_mix(h ^ extra);
  h = support::hash_mix(h ^ static_cast<uint64_t>(req.region));
  h = support::hash_mix(h ^ (static_cast<uint64_t>(req.privilege) |
                             (static_cast<uint64_t>(req.redop) << 8)));
  h = support::hash_mix(h ^ static_cast<uint64_t>(req.fields.size()));
  for (rt::FieldId f : req.fields) {
    h = support::hash_mix(h ^ static_cast<uint64_t>(f));
  }
  return h;
}

void TraceReplay::enter_loop(uint64_t cur_op_id) {
  ++depth_;
  if (depth_ != 1) return;
  loop_entry_op_ = cur_op_id;
  in_iteration_ = false;
  capture_active_ = false;
  replay_active_ = false;
  have_prev_ = false;
  have_tmpl_ = false;
  prev_.clear();
  cur_.clear();
  tmpl_.clear();
  iter_index_ = 0;
}

void TraceReplay::begin_iteration() {
  if (depth_ != 1) return;
  if (in_iteration_) finish_iteration();
  in_iteration_ = true;
  ++iter_index_;
  if (have_tmpl_ && tmpl_forest_sig_ != forest_signature()) invalidate();
  if (have_tmpl_ && invalidate_every_ > 0 &&
      iter_index_ % invalidate_every_ == 0) {
    invalidate();
  }
  if (have_tmpl_) {
    replay_active_ = true;
    replay_idx_ = 0;
  } else {
    capture_active_ = true;
    cur_.clear();
  }
}

void TraceReplay::exit_loop() {
  --depth_;
  if (depth_ != 0) return;
  if (in_iteration_) finish_iteration();
  in_iteration_ = false;
}

void TraceReplay::finish_iteration() {
  if (replay_active_) {
    if (replay_idx_ == tmpl_.size()) {
      ++replays_;
    } else {
      // The iteration ended with records still expected: the stream
      // shrank without a fingerprint miss.
      invalidate();
    }
    replay_active_ = false;
    return;
  }
  // capture_active_ is false for the tail of an iteration that
  // invalidated mid-way; a partial capture can never validate, so
  // capturing restarts at the next iteration boundary instead.
  if (!capture_active_) return;
  capture_active_ = false;
  if (have_prev_ && prev_ == cur_) {
    tmpl_ = std::move(cur_);
    have_tmpl_ = true;
    tmpl_forest_sig_ = forest_signature();
    ++captures_;
    have_prev_ = false;
    prev_.clear();
  } else {
    prev_ = std::move(cur_);
    have_prev_ = true;
  }
  cur_.clear();
}

void TraceReplay::invalidate() {
  ++invalidations_;
  have_tmpl_ = false;
  tmpl_.clear();
  replay_active_ = false;
  capture_active_ = false;
  have_prev_ = false;
  prev_.clear();
  cur_.clear();
}

void TraceReplay::record(uint64_t fingerprint, uint64_t op_id,
                         const rt::Requirement& req, sim::Event completion,
                         std::vector<sim::Event>& pre) {
  if (replay_active_) {
    if (replay_idx_ < tmpl_.size() && tmpl_[replay_idx_].fp == fingerprint) {
      const Entry& e = tmpl_[replay_idx_];
      ++replay_idx_;
      outcome_scratch_.dep_ops.clear();
      for (const OpRef& d : e.deps) {
        outcome_scratch_.dep_ops.push_back(resolve(d, op_id));
      }
      outcome_scratch_.covers.clear();
      for (const CoverRef& c : e.covers) {
        outcome_scratch_.covers.push_back({c.field, resolve(c.op, op_id),
                                           c.region, c.privilege, c.redop,
                                           c.retired});
      }
      const uint64_t scanned = deps_.replay(op_id, req, completion,
                                            outcome_scratch_, e.found, pre);
      CR_CHECK_MSG(scanned == e.scanned,
                   "trace replay: pairs_scanned diverged from the captured "
                   "iteration");
      pairs_skipped_ += scanned;
      return;
    }
    invalidate();  // fingerprint miss: analyze from here on
  }

  if (!capture_active_) {
    std::vector<sim::Event> deps = deps_.record(op_id, req, completion);
    pre.insert(pre.end(), deps.begin(), deps.end());
    return;
  }

  rt::DependenceTracker::Capture raw;
  const uint64_t scanned0 = deps_.pairs_scanned();
  const uint64_t found0 = deps_.dependences_found();
  std::vector<sim::Event> deps = deps_.record(op_id, req, completion, &raw);
  pre.insert(pre.end(), deps.begin(), deps.end());

  Entry e;
  e.fp = fingerprint;
  e.scanned = deps_.pairs_scanned() - scanned0;
  e.found = deps_.dependences_found() - found0;
  e.deps.reserve(raw.dep_ops.size());
  for (uint64_t ref : raw.dep_ops) e.deps.push_back(encode(ref, op_id));
  e.covers.reserve(raw.covers.size());
  for (const auto& c : raw.covers) {
    e.covers.push_back({c.field, encode(c.op_id, op_id), c.region,
                        c.privilege, c.redop, c.retired});
  }
  cur_.push_back(std::move(e));
}

}  // namespace cr::exec
