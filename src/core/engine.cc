#include "core/engine.h"

#include <algorithm>
#include <numeric>

#include "core/problem.h"
#include "util/cancel.h"
#include "util/check.h"

namespace factcheck {
namespace {

// SplitMix64 finalizer: the per-element signature mixer.  Commutative
// accumulation (wrapping addition of mixed elements) makes the signature
// of base ∪ {i} equal to sig(base) + mix(i) — an O(1) update per probe.
std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Canonicalizes `cleaned` into the reusable buffer `out` (no allocation
// once the buffer has grown to the working-set size).
void CanonicalInto(const std::vector<int>& cleaned, std::vector<int>& out) {
  out.assign(cleaned.begin(), cleaned.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

// Whether `key` equals base ∪ {extra} (base sorted/unique, extra not in
// base) — the hit check of the extension path, done by a merged walk so no
// candidate set is ever materialized for a cache hit.
bool KeyEqualsExtension(const std::vector<int>& key,
                        const std::vector<int>& base, int extra) {
  if (key.size() != base.size() + 1) return false;
  std::size_t j = 0;
  bool extra_used = false;
  for (std::size_t k = 0; k < key.size(); ++k) {
    if (!extra_used && (j == base.size() || extra < base[j])) {
      if (key[k] != extra) return false;
      extra_used = true;
    } else {
      if (key[k] != base[j]) return false;
      ++j;
    }
  }
  return true;
}

// Materializes base ∪ {extra} into the reusable buffer `out`.
void BuildExtension(const std::vector<int>& base, int extra,
                    std::vector<int>& out) {
  out.clear();
  auto it = std::lower_bound(base.begin(), base.end(), extra);
  out.insert(out.end(), base.begin(), it);
  out.push_back(extra);
  out.insert(out.end(), it, base.end());
}

std::int64_t KeyBytes(const std::vector<int>& key) {
  return static_cast<std::int64_t>(key.size() * sizeof(int));
}

// Whether two ascending duplicate-free index sequences share an element
// (merge walk — the eviction predicate of InvalidateObjects).
bool IntersectsSorted(const std::vector<int>& a, const std::vector<int>& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

}  // namespace

EvalEngine::ApiGuard::ApiGuard(EvalEngine* engine) : engine_(engine) {
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id expected{};  // free
  if (!engine_->api_owner_.compare_exchange_strong(
          expected, self, std::memory_order_acquire)) {
    // Taken: either a nested call from the owning thread (the greedy
    // drivers funnel through the batch entry points — fine) or a second
    // thread violating the single-writer contract.
    FC_CHECK(expected == self &&
             "EvalEngine: concurrent API calls from two threads; serialize "
             "sessions (see serve/service.h) or give each thread its own "
             "engine");
    nested_ = true;
  }
}

EvalEngine::ApiGuard::~ApiGuard() {
  if (!nested_) {
    engine_->api_owner_.store(std::thread::id{}, std::memory_order_release);
  }
}

std::size_t EvalEngine::KeyHash::operator()(
    const std::vector<int>& key) const {
  // FNV-1a over the index sequence (exact-key fallback table).
  std::size_t h = 1469598103934665603ull;
  for (int x : key) {
    h ^= static_cast<std::size_t>(static_cast<std::uint32_t>(x));
    h *= 1099511628211ull;
  }
  return h;
}

EvalEngine::EvalEngine(SetObjective objective, OptimizeDirection direction,
                       ThreadPool* pool)
    : objective_(std::move(objective)), direction_(direction), pool_(pool) {
  FC_CHECK(objective_ != nullptr);
}

void EvalEngine::BindProblem(const CleaningProblem* problem,
                             CacheDependency dependency) {
  bound_problem_ = problem;
  dependency_ = dependency;
  seen_epoch_ = problem != nullptr ? problem->epoch() : 0;
}

void EvalEngine::SyncEpoch() {
  if (bound_problem_ == nullptr) return;
  const std::uint64_t now = bound_problem_->epoch();
  if (now == seen_epoch_) return;
  CleaningProblem::ProblemChanges changes;
  if (!bound_problem_->ChangesSince(seen_epoch_, &changes)) {
    // The journal no longer reaches our stamp (too many mutations, or the
    // instance was replaced wholesale): everything is suspect.  Counted
    // as a full rebuild — the serving layer's journal-overrun
    // degradation path, distinct from the selective downdates below.
    ++stats_.full_rebuilds;
    InvalidateAll();
  } else if (changes.structure_changed || changes.values_changed) {
    // Both policies read every current value (MaxPr's threshold and
    // conditioning, MinVar through the query), and a structural change
    // re-aims indices — full flush.
    InvalidateAll();
  } else if (!changes.dist_changed.empty()) {
    if (dependency_ == CacheDependency::kAllObjects) {
      InvalidateAll();
    } else {
      InvalidateObjects(changes.dist_changed);
    }
  }
  // Pure cost changes fall through: objective values never read costs.
  seen_epoch_ = now;
}

void EvalEngine::InvalidateObjects(const std::vector<int>& changed) {
  // Erase-while-iterating over the unordered tables: the surviving set is
  // determined solely by the intersection predicate, so the visit order
  // cannot affect any observable state (see determinism allowlist).
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (IntersectsSorted(it->second.key, changed)) {
      it = cache_.erase(it);
      ++stats_.cache_evictions;
    } else {
      ++it;
    }
  }
  for (auto it = overflow_.begin(); it != overflow_.end();) {
    if (IntersectsSorted(it->first, changed)) {
      it = overflow_.erase(it);
      ++stats_.cache_evictions;
    } else {
      ++it;
    }
  }
}

void EvalEngine::InvalidateAll() {
  stats_.cache_evictions +=
      static_cast<std::int64_t>(cache_.size() + overflow_.size());
  cache_.clear();
  overflow_.clear();
}

bool EvalEngine::CheckMemoInvariants(std::string* error) const {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  // Const re-derivation of the signature (HashElement mutates stats).
  auto signature_of = [this](const std::vector<int>& key) {
    std::uint64_t sig = 0;
    for (int x : key) {
      sig += degenerate_signature_
                 ? 0
                 : SplitMix64(static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(x)));
    }
    return sig;
  };
  auto canonical = [](const std::vector<int>& key) {
    return std::is_sorted(key.begin(), key.end()) &&
           std::adjacent_find(key.begin(), key.end()) == key.end();
  };
  for (const auto& [sig, entry] : cache_) {
    if (!canonical(entry.key)) {
      return fail("memo: primary entry key is not canonical");
    }
    if (signature_of(entry.key) != sig) {
      return fail("memo: primary entry filed under a foreign signature");
    }
  }
  for (const auto& [key, value] : overflow_) {
    (void)value;
    if (!canonical(key)) {
      return fail("memo: overflow key is not canonical");
    }
    auto it = cache_.find(signature_of(key));
    if (it == cache_.end()) {
      return fail("memo: overflow entry without a colliding primary entry");
    }
    if (it->second.key == key) {
      return fail("memo: overflow entry duplicates its primary entry");
    }
  }
  return true;
}

std::uint64_t EvalEngine::HashElement(int x) {
  stats_.key_bytes_hashed += static_cast<std::int64_t>(sizeof(int));
  if (degenerate_signature_) return 0;
  return SplitMix64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)));
}

std::uint64_t EvalEngine::SignatureOf(const std::vector<int>& sorted_key) {
  std::uint64_t sig = 0;
  for (int x : sorted_key) sig += HashElement(x);
  return sig;
}

bool EvalEngine::Lookup(std::uint64_t sig, const std::vector<int>& key,
                        double* value) {
  auto it = cache_.find(sig);
  if (it == cache_.end()) return false;
  if (it->second.key == key) {
    *value = it->second.value;
    return true;
  }
  // Two distinct sets share the signature: consult the exact-key table.
  stats_.key_bytes_hashed += KeyBytes(key);
  auto ot = overflow_.find(key);
  if (ot == overflow_.end()) return false;
  *value = ot->second;
  return true;
}

void EvalEngine::Store(std::uint64_t sig, const std::vector<int>& key,
                       double value) {
  auto [it, inserted] = cache_.try_emplace(sig);
  if (inserted) {
    it->second.key = key;
    it->second.value = value;
    return;
  }
  if (it->second.key == key) {
    it->second.value = value;
    return;
  }
  stats_.key_bytes_hashed += KeyBytes(key);
  overflow_[key] = value;
}

void EvalEngine::EvaluateMisses(int count) {
  if (count == 0) return;
  miss_values_.resize(count);
  // Each task computes one whole objective value into its own slot from
  // its own key buffer; the gather below walks slots in index order, so
  // the result is bit-stable for any pool size.  If the objective throws
  // (the pool transports task exceptions), nothing has been committed to
  // the memo yet, so the cache stays free of bogus entries.
  if (pool_ != nullptr && count > 1) {
    pool_->ParallelFor(count, [this](int m) {
      miss_values_[m] = objective_(miss_keys_[m]);
    });
  } else {
    for (int m = 0; m < count; ++m) {
      miss_values_[m] = objective_(miss_keys_[m]);
    }
  }
  stats_.evaluations += count;
  for (int m = 0; m < count; ++m) {
    Store(miss_sigs_[m], miss_keys_[m], miss_values_[m]);
  }
}

double EvalEngine::Evaluate(const std::vector<int>& cleaned) {
  ApiGuard guard(this);
  SyncEpoch();
  CanonicalInto(cleaned, scratch_key_);
  std::uint64_t sig = SignatureOf(scratch_key_);
  double value;
  if (Lookup(sig, scratch_key_, &value)) {
    ++stats_.cache_hits;
    return value;
  }
  value = objective_(scratch_key_);
  ++stats_.evaluations;
  Store(sig, scratch_key_, value);
  return value;
}

std::vector<double> EvalEngine::EvaluateBatch(
    const std::vector<std::vector<int>>& candidates) {
  ApiGuard guard(this);
  SyncEpoch();
  const int n = static_cast<int>(candidates.size());
  std::vector<double> out(n, 0.0);
  std::vector<int> miss_slot(n, -1);
  // Per-signature pending slots, so duplicate candidates within the batch
  // are classified once (key-compared only on a signature match).
  std::unordered_map<std::uint64_t, std::vector<int>> pending_by_sig;
  int misses = 0;
  for (int j = 0; j < n; ++j) {
    CanonicalInto(candidates[j], scratch_key_);
    std::uint64_t sig = SignatureOf(scratch_key_);
    double value;
    if (Lookup(sig, scratch_key_, &value)) {
      ++stats_.cache_hits;
      out[j] = value;
      continue;
    }
    std::vector<int>& slots = pending_by_sig[sig];
    int dup = -1;
    for (int s : slots) {
      if (miss_keys_[s] == scratch_key_) {
        dup = s;
        break;
      }
    }
    if (dup >= 0) {
      miss_slot[j] = dup;  // duplicate within this batch
      continue;
    }
    int slot = misses++;
    if (static_cast<int>(miss_keys_.size()) < misses) {
      miss_keys_.resize(misses);
      miss_sigs_.resize(misses);
    }
    miss_keys_[slot] = scratch_key_;
    miss_sigs_[slot] = sig;
    slots.push_back(slot);
    miss_slot[j] = slot;
  }
  EvaluateMisses(misses);
  for (int j = 0; j < n; ++j) {
    if (miss_slot[j] >= 0) out[j] = miss_values_[miss_slot[j]];
  }
  return out;
}

void EvalEngine::EvaluateExtensions(const std::vector<int>& base,
                                    const std::vector<int>& extras,
                                    std::vector<double>* out) {
  ApiGuard guard(this);
  SyncEpoch();
  FC_CHECK(std::is_sorted(base.begin(), base.end()));
  const int n = static_cast<int>(extras.size());
  out->assign(n, 0.0);
  std::uint64_t base_sig = SignatureOf(base);
  miss_slot_.assign(n, -1);
  int misses = 0;
  for (int j = 0; j < n; ++j) {
    int e = extras[j];
    FC_CHECK(!std::binary_search(base.begin(), base.end(), e));
    std::uint64_t sig = base_sig + HashElement(e);
    auto it = cache_.find(sig);
    if (it != cache_.end()) {
      if (KeyEqualsExtension(it->second.key, base, e)) {
        ++stats_.cache_hits;
        (*out)[j] = it->second.value;
        continue;
      }
      // Signature collision with another set: fall back to the exact key.
      BuildExtension(base, e, scratch_key_);
      stats_.key_bytes_hashed += KeyBytes(scratch_key_);
      auto ot = overflow_.find(scratch_key_);
      if (ot != overflow_.end()) {
        ++stats_.cache_hits;
        (*out)[j] = ot->second;
        continue;
      }
    }
    // Extras are distinct, so pending keys never repeat within the batch;
    // equal pending signatures are resolved by Store (second set goes to
    // the exact-key table).
    int slot = misses++;
    if (static_cast<int>(miss_keys_.size()) < misses) {
      miss_keys_.resize(misses);
      miss_sigs_.resize(misses);
    }
    BuildExtension(base, e, miss_keys_[slot]);
    miss_sigs_[slot] = sig;
    miss_slot_[j] = slot;
  }
  EvaluateMisses(misses);
  for (int j = 0; j < n; ++j) {
    if (miss_slot_[j] >= 0) (*out)[j] = miss_values_[miss_slot_[j]];
  }
}

Selection EvalEngine::Greedy(const std::vector<double>& costs, double budget,
                             const GreedyOptions& options) {
  ApiGuard guard(this);
  SyncEpoch();
  const int n = static_cast<int>(costs.size());
  const double sign = direction_ == OptimizeDirection::kMaximize ? 1.0 : -1.0;
  const bool stop_when_no_gain = direction_ == OptimizeDirection::kMaximize;
  const bool lazy = options.lazy;
  IncrementalObjective* inc = options.incremental;
  Selection sel;
  // Cooperative cancellation: polled before the initial evaluation and at
  // each round boundary.  Cancellation can only land BETWEEN engine
  // batches, so the memo never holds a half-committed batch; the
  // (partial) selection is returned for the caller to discard and the
  // final check is skipped.
  bool cancelled = options.cancel != nullptr && options.cancel->Cancelled();
  if (cancelled) {
    FinishSelection(sel);
    if (options.stats_out != nullptr) *options.stats_out = stats_;
    return sel;
  }

  // The objective of the committed set.  A batch gain is measured against
  // it, and a pick moves it to the pick's evaluated value (current + gain
  // need not be bit-equal to it).  The incremental path probes gains
  // directly and leaves `current` at f(∅), which only its final check
  // reads (Value() is read only by the final check; core/incremental.h).
  double current = 0.0;
  if (inc != nullptr) {
    inc->Reset({});
    ++stats_.evaluations;  // one full-objective build
    if (options.final_check) current = inc->Value();
  } else {
    current = Evaluate({});
  }

  // One heap serves every mode.  An entry holds a gain probed against the
  // committed set as of its stamp, gen + version[index]: a commit whose
  // footprint is every object (always, on the batch path) bumps `gen`,
  // any other bumps the version of each object in its footprint.  Both
  // counters only grow, so an entry is fresh iff its stamp still matches.
  // Plain mode re-probes the stale objects before the next pick, so a
  // stale entry is a superseded duplicate; lazy (CELF) mode re-probes a
  // stale entry only when it reaches the top, where under submodularity
  // its stale score bounds the fresh one.  Entries outside the footprint
  // stay fresh because their gains are bitwise unchanged, so both modes
  // select what a full re-probe would.  Ties break toward the lower
  // index, matching an ascending scan.
  struct Entry {
    double score;
    double gain;
    double value;  // evaluated f(T ∪ {index}) on the batch path
    int index;
    int stamp;
  };
  auto worse = [](const Entry& a, const Entry& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.index > b.index;
  };
  std::vector<bool> taken(n, false);
  std::vector<int> version(n, 0);
  int gen = 0;
  std::vector<Entry> heap;
  heap.reserve(n);
  // The committed set in sorted order (sel.cleaned holds pick order until
  // FinishSelection) — the base of every batch probe.
  std::vector<int> base;
  if (inc == nullptr) base.reserve(n);
  std::vector<double> values;
  // f({i}) of every affordable singleton, remembered from round one for
  // the Algorithm-1 final check, whose candidates they are exactly.
  std::vector<double> singleton(n, 0.0);

  // Probes `ids` against the committed set and queues their scores.  The
  // batch path evaluates them as one extension batch (pooled when a pool
  // is attached); the incremental path asks the objective for each gain.
  auto probe = [&](const std::vector<int>& ids) {
    if (inc == nullptr) EvaluateExtensions(base, ids, &values);
    for (std::size_t j = 0; j < ids.size(); ++j) {
      const int i = ids[j];
      double gain, value;
      if (inc == nullptr) {
        value = values[j];
        gain = value - current;
      } else {
        gain = inc->ProbeGain(i);
        ++stats_.probes;
        value = current + gain;
      }
      if (sel.cleaned.empty()) singleton[i] = value;
      const double benefit = sign * gain;
      heap.push_back({options.cost_aware ? benefit / costs[i] : benefit, gain,
                      value, i, gen + version[i]});
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  };

  // Objects to probe before the next pick: every affordable singleton
  // first, then each plain-mode footprint.
  std::vector<int> dirty;
  dirty.reserve(n);
  for (int i = 0; i < n; ++i) {
    if (costs[i] <= budget) dirty.push_back(i);
  }
  std::vector<int> refresh;  // a lazy re-probe's one object
  std::vector<int> footprint;
  while (true) {
    if (options.cancel != nullptr && options.cancel->Cancelled()) {
      cancelled = true;
      break;
    }
    // The accumulated cost only grows, so an unaffordable candidate can be
    // dropped permanently, here and when it surfaces in the heap.
    dirty.erase(std::remove_if(dirty.begin(), dirty.end(),
                               [&](int i) {
                                 return taken[i] ||
                                        sel.cost + costs[i] > budget;
                               }),
                dirty.end());
    if (!dirty.empty()) probe(dirty);
    dirty.clear();
    int pick = -1;
    double pick_gain = 0.0, pick_value = 0.0;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), worse);
      const Entry e = heap.back();
      heap.pop_back();
      if (taken[e.index] || sel.cost + costs[e.index] > budget) continue;
      if (e.stamp == gen + version[e.index]) {
        pick = e.index;
        pick_gain = e.gain;
        pick_value = e.value;
        break;
      }
      if (lazy) {
        refresh.assign(1, e.index);
        probe(refresh);
      }
    }
    if (pick < 0) break;  // nothing affordable remains
    if (stop_when_no_gain && sign * pick_gain <= 0.0) break;
    taken[pick] = true;
    sel.cleaned.push_back(pick);
    sel.cost += costs[pick];
    if (inc == nullptr) {
      base.insert(std::lower_bound(base.begin(), base.end(), pick), pick);
      current = pick_value;
    } else {
      inc->Commit(pick);
      ++stats_.commits;
    }
    if (inc == nullptr || !inc->Footprint(pick, &footprint)) {
      ++gen;  // every object
      if (!lazy) {
        heap.clear();  // every entry is about to be superseded
        dirty.resize(n);
        std::iota(dirty.begin(), dirty.end(), 0);
      }
      continue;
    }
    for (int i : footprint) {
      if (taken[i]) continue;
      ++version[i];
      if (!lazy) dirty.push_back(i);
    }
  }

  if (options.final_check && !cancelled && !sel.cleaned.empty()) {
    // Lines 5-8 of Algorithm 1: if some affordable single object alone
    // beats the accumulated set, take it instead.
    if (inc != nullptr) current = inc->Value();
    int best = -1;
    for (int i = 0; i < n; ++i) {
      if (taken[i] || costs[i] > budget) continue;
      if (best < 0 || sign * singleton[i] > sign * singleton[best]) best = i;
    }
    if (best >= 0 && sign * singleton[best] > sign * current) {
      sel.cleaned = {best};
      sel.cost = costs[best];
    }
  }
  FinishSelection(sel);
  if (options.stats_out != nullptr) *options.stats_out = stats_;
  return sel;
}

}  // namespace factcheck
