#include "support/interval_set.h"

#include <algorithm>
#include <sstream>

#include "support/check.h"

namespace cr::support {

IntervalSet::IntervalSet(std::initializer_list<Interval> ivs) {
  for (const Interval& iv : ivs) add(iv.lo, iv.hi);
}

IntervalSet IntervalSet::range(uint64_t lo, uint64_t hi) {
  IntervalSet out;
  if (lo < hi) out.ivs_.push_back({lo, hi});
  return out;
}

IntervalSet IntervalSet::from_points(std::vector<uint64_t> points) {
  std::sort(points.begin(), points.end());
  IntervalSet out;
  for (uint64_t p : points) {
    // Duplicate check as `p < back().hi`, not `back().hi >= p + 1`:
    // the latter overflows at p == UINT64_MAX and silently dropped the
    // point. (UINT64_MAX itself is unrepresentable in half-open
    // intervals; append_point CHECK-fails on it rather than vanishing.)
    if (!out.ivs_.empty() && p < out.ivs_.back().hi) continue;  // dup
    out.append_point(p);
  }
  return out;
}

IntervalSet IntervalSet::set_union(const IntervalSet& other) const {
  IntervalSet out;
  size_t i = 0, j = 0;
  const auto& a = ivs_;
  const auto& b = other.ivs_;
  while (i < a.size() || j < b.size()) {
    Interval next;
    if (j >= b.size() || (i < a.size() && a[i].lo <= b[j].lo)) {
      next = a[i++];
    } else {
      next = b[j++];
    }
    if (!out.ivs_.empty() && out.ivs_.back().hi >= next.lo) {
      out.ivs_.back().hi = std::max(out.ivs_.back().hi, next.hi);
    } else {
      out.ivs_.push_back(next);
    }
  }
  return out;
}

namespace {

// The search half of gallop(): given v[lo].hi <= key, the first index
// k > lo with v[k].hi > key (or v.size() if none). Interval ends
// strictly increase in a coalesced set, so this is an exponential probe
// followed by a binary search of the last doubling: O(log d) to skip d
// intervals.
size_t gallop_search(const std::vector<Interval>& v, size_t lo,
                     uint64_t key) {
  const size_t n = v.size();
  size_t step = 1;
  while (lo + step < n && v[lo + step].hi <= key) {
    lo += step;
    step *= 2;
  }
  size_t hi = std::min(lo + step, n);  // v[hi].hi > key, or hi == n
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (v[mid].hi <= key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

// Moves a cursor that is behind (v[i].hi <= key) to the first interval
// ending after key. The first probe is the linear merge's own step and
// stays inline, so interleaved inputs of equal size pay no search.
inline size_t gallop(const std::vector<Interval>& v, size_t i, uint64_t key) {
  ++i;
  if (i == v.size() || v[i].hi > key) return i;
  return gallop_search(v, i, key);
}

}  // namespace

// The three merges below share one rule: a cursor that is behind (its
// interval ends at or before the other side's current start) gallops
// past everything that cannot meet the other side, so a tile-sized set
// meets a whole-boundary set in O(|small| log(|large| / |small|) +
// output) instead of a scan of the large side.
IntervalSet IntervalSet::set_intersect(const IntervalSet& other) const {
  IntervalSet out;
  size_t i = 0, j = 0;
  const auto& a = ivs_;
  const auto& b = other.ivs_;
  while (i < a.size() && j < b.size()) {
    if (a[i].hi <= b[j].lo) {
      i = gallop(a, i, b[j].lo);
    } else if (b[j].hi <= a[i].lo) {
      j = gallop(b, j, a[i].lo);
    } else {
      out.ivs_.push_back({std::max(a[i].lo, b[j].lo),
                          std::min(a[i].hi, b[j].hi)});
      if (a[i].hi < b[j].hi) {
        ++i;
      } else {
        ++j;
      }
    }
  }
  return out;
}

IntervalSet IntervalSet::set_subtract(const IntervalSet& other) const {
  IntervalSet out;
  const auto& a = ivs_;
  const auto& b = other.ivs_;
  size_t j = 0;
  for (size_t i = 0; i < a.size();) {
    const Interval iv = a[i];
    if (j < b.size() && b[j].hi <= iv.lo) j = gallop(b, j, iv.lo);
    // Cut every b interval that meets iv out of it; each cut but the
    // last leaves a piece of output.
    uint64_t lo = iv.lo;
    size_t k = j;
    while (k < b.size() && b[k].lo < iv.hi) {
      if (b[k].lo > lo) out.ivs_.push_back({lo, b[k].lo});
      lo = std::max(lo, b[k].hi);
      if (lo >= iv.hi) break;
      ++k;
    }
    if (lo < iv.hi) {
      out.ivs_.push_back({lo, iv.hi});
      ++i;
    } else {
      // b[k] covers the rest of iv and every later a interval that ends
      // by b[k].hi.
      i = gallop(a, i, b[k].hi);
    }
  }
  return out;
}

bool IntervalSet::contains(uint64_t point) const {
  auto it = std::upper_bound(
      ivs_.begin(), ivs_.end(), point,
      [](uint64_t p, const Interval& iv) { return p < iv.lo; });
  if (it == ivs_.begin()) return false;
  --it;
  return point < it->hi;
}

bool IntervalSet::contains_all(const IntervalSet& other) const {
  return other.set_subtract(*this).empty();
}

bool IntervalSet::overlaps(const IntervalSet& other) const {
  size_t i = 0, j = 0;
  const auto& a = ivs_;
  const auto& b = other.ivs_;
  while (i < a.size() && j < b.size()) {
    if (a[i].hi <= b[j].lo) {
      i = gallop(a, i, b[j].lo);
    } else if (b[j].hi <= a[i].lo) {
      j = gallop(b, j, a[i].lo);
    } else {
      return true;
    }
  }
  return false;
}

uint64_t IntervalSet::size() const {
  uint64_t total = 0;
  for (const Interval& iv : ivs_) total += iv.size();
  return total;
}

Interval IntervalSet::bounds() const {
  CR_CHECK(!ivs_.empty());
  return {ivs_.front().lo, ivs_.back().hi};
}

void IntervalSet::check_representable(uint64_t p) {
  CR_CHECK_MSG(p != UINT64_MAX,
               "IntervalSet cannot represent UINT64_MAX as a point");
}

void IntervalSet::add(uint64_t lo, uint64_t hi) {
  if (lo >= hi) return;
  if (ivs_.empty() || lo >= ivs_.back().hi) {
    append(lo, hi);
    return;
  }
  ivs_.push_back({lo, hi});
  normalize();
}

void IntervalSet::append(uint64_t lo, uint64_t hi) {
  if (lo >= hi) return;
  if (!ivs_.empty()) {
    CR_DCHECK(lo >= ivs_.back().lo);
    if (lo <= ivs_.back().hi) {
      ivs_.back().hi = std::max(ivs_.back().hi, hi);
      return;
    }
  }
  ivs_.push_back({lo, hi});
}

void IntervalSet::for_each_point(
    const std::function<void(uint64_t)>& fn) const {
  for (const Interval& iv : ivs_) {
    for (uint64_t p = iv.lo; p < iv.hi; ++p) fn(p);
  }
}

uint64_t IntervalSet::nth_point(uint64_t k) const {
  for (const Interval& iv : ivs_) {
    if (k < iv.size()) return iv.lo + k;
    k -= iv.size();
  }
  CR_UNREACHABLE("nth_point index out of range");
}

std::string IntervalSet::to_string() const {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < ivs_.size(); ++i) {
    if (i > 0) os << ", ";
    os << "[" << ivs_[i].lo << "," << ivs_[i].hi << ")";
  }
  os << "}";
  return os.str();
}

void IntervalSet::normalize() {
  std::sort(ivs_.begin(), ivs_.end(),
            [](const Interval& a, const Interval& b) {
              return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
            });
  std::vector<Interval> merged;
  merged.reserve(ivs_.size());
  for (const Interval& iv : ivs_) {
    if (!merged.empty() && merged.back().hi >= iv.lo) {
      merged.back().hi = std::max(merged.back().hi, iv.hi);
    } else {
      merged.push_back(iv);
    }
  }
  ivs_ = std::move(merged);
}

}  // namespace cr::support
