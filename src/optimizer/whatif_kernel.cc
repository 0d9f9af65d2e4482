#include "optimizer/whatif_kernel.h"

#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "index/index_matcher.h"

namespace xia {

WhatIfKernel::WhatIfKernel(const Optimizer* optimizer,
                           const std::vector<Query>* queries,
                           const Catalog* base,
                           std::vector<CatalogEntry> overlay,
                           ContainmentCache* containment,
                           WhatIfCostCache* cache, int threads)
    : optimizer_(optimizer),
      queries_(queries),
      base_(base),
      overlay_(std::move(overlay)),
      containment_(containment),
      cache_(cache),
      threads_(ResolveThreadCount(threads)) {
  // Fingerprint classes: repeated queries share contexts, relevance
  // verdicts, and cached plans.
  const std::vector<Query>& qs = *queries_;
  class_of_.resize(qs.size());
  std::unordered_map<std::string, int> class_ids;
  std::vector<size_t> representative;
  std::vector<std::string> fingerprints;
  for (size_t qi = 0; qi < qs.size(); ++qi) {
    std::string fp = QueryFingerprint(qs[qi].normalized);
    auto [it, fresh] =
        class_ids.try_emplace(fp, static_cast<int>(representative.size()));
    if (fresh) {
      representative.push_back(qi);
      fingerprints.push_back(std::move(fp));
    }
    class_of_[qi] = it->second;
  }

  // Relevance is the matcher's own predicate (CanServe), decided once per
  // (entry, class) over patterns interned once.
  IndexMatcher matcher(containment_);
  std::vector<QueryPatternIds> class_patterns;
  class_patterns.reserve(representative.size());
  for (size_t qi : representative) {
    class_patterns.push_back(matcher.Intern(qs[qi].normalized));
  }
  relevant_.reserve(overlay_.size());
  for (const CatalogEntry& entry : overlay_) {
    const PatternId pattern = containment_->Intern(entry.def.pattern);
    Bitmap bits(qs.size());
    std::vector<signed char> verdict(representative.size(), -1);
    for (size_t qi = 0; qi < qs.size(); ++qi) {
      const size_t cls = static_cast<size_t>(class_of_[qi]);
      signed char& v = verdict[cls];
      if (v < 0) {
        v = matcher.CanServe(qs[qi].normalized, class_patterns[cls], entry.def,
                             pattern);
      }
      if (v == 1) bits.Set(qi);
    }
    relevant_.push_back(std::move(bits));
    overlay_ids_.push_back(cache_->Intern(CatalogEntryIdentity(entry)));
  }

  // Per class: the interned context (fingerprint + collection state) and
  // the identities of the base entries that can serve it.
  std::map<std::string, std::string> state_of;
  std::map<const CatalogEntry*, uint32_t> base_id;
  for (size_t cls = 0; cls < representative.size(); ++cls) {
    const NormalizedQuery& nq = qs[representative[cls]].normalized;
    auto [state, fresh] = state_of.try_emplace(nq.collection);
    if (fresh) {
      state->second = CollectionStateIdentity(*optimizer_, nq.collection);
    }
    context_id_.push_back(cache_->Intern(fingerprints[cls] + state->second));
    std::vector<uint32_t> ids;
    for (const CatalogEntry* entry : base_->IndexesFor(nq.collection)) {
      if (!matcher.CanServe(nq, class_patterns[cls], entry->def,
                            containment_->Intern(entry->def.pattern))) {
        continue;
      }
      auto [id, first] = base_id.try_emplace(entry, 0);
      if (first) id->second = cache_->Intern(CatalogEntryIdentity(*entry));
      ids.push_back(id->second);
    }
    base_ids_.push_back(std::move(ids));
  }
}

ThreadPool* WhatIfKernel::PoolFor(size_t tasks) {
  if (threads_ <= 1 || tasks < static_cast<size_t>(threads_) * 4) {
    return nullptr;
  }
  std::call_once(pool_once_,
                 [this] { pool_ = std::make_unique<ThreadPool>(threads_); });
  return pool_.get();
}

Result<WhatIfKernel::PlanPtr> WhatIfKernel::Optimize(
    const Request& request) const {
  // Hit argument = query index, so a test can fail "query k" no matter
  // which thread or batch position runs it.
  XIA_FAILPOINT_ARG("advisor.whatif.optimize",
                    static_cast<int64_t>(request.query));
  const Query& query = (*queries_)[request.query];
  Result<QueryPlan> plan = Status::Internal("not optimized");
  if (request.overlay.empty()) {
    plan = optimizer_->Optimize(query, *base_, containment_);
  } else {
    // Minimal overlay: the base catalog plus only the requested entries.
    // Entries the request leaves out cannot match the query, so the plan
    // equals the one under any configuration with the same relevant set.
    Catalog catalog = *base_;
    for (int e : request.overlay) {
      const CatalogEntry& entry = overlay_[static_cast<size_t>(e)];
      XIA_RETURN_IF_ERROR(catalog.AddVirtual(entry.def, entry.stats));
    }
    plan = optimizer_->Optimize(query, catalog, containment_);
  }
  if (!plan.ok()) return plan.status();
  return PlanPtr(std::make_shared<const QueryPlan>(std::move(*plan)));
}

std::vector<Result<WhatIfKernel::PlanPtr>> WhatIfKernel::Run(
    const std::vector<Request>& requests, const CancelToken* cancel,
    size_t* tasks) {
  std::vector<Result<PlanPtr>> results(requests.size(),
                                       Status::Internal("not evaluated"));
  // Phase 1: cache lookup, else dedup onto a plan task.
  std::unordered_map<std::string, size_t> task_of_key;
  std::vector<size_t> task_request;  // First request of each task.
  std::vector<const std::string*> task_key;
  std::vector<size_t> task_of(requests.size(), SIZE_MAX);
  std::vector<uint32_t> ids;
  std::string key;
  for (size_t r = 0; r < requests.size(); ++r) {
    const Request& request = requests[r];
    const size_t cls = static_cast<size_t>(class_of_[request.query]);
    ids.assign(base_ids_[cls].begin(), base_ids_[cls].end());
    for (int e : request.overlay) {
      ids.push_back(overlay_ids_[static_cast<size_t>(e)]);
    }
    WhatIfCostCache::Key(context_id_[cls], &ids, &key);
    if (PlanPtr hit = cache_->Lookup(key)) {
      results[r] = std::move(hit);
      continue;
    }
    auto [it, inserted] = task_of_key.try_emplace(key, task_request.size());
    if (inserted) {
      task_request.push_back(r);
      task_key.push_back(&it->first);
    }
    task_of[r] = it->second;
  }
  if (tasks != nullptr) *tasks = task_request.size();

  // Phase 2: one fan-out with first-failure sibling cancellation.
  std::vector<Result<PlanPtr>> plans(task_request.size(),
                                     Status::Internal("not evaluated"));
  ParallelForCancellable(
      PoolFor(plans.size()), plans.size(),
      [&](size_t t) {
        if (cancel != nullptr && cancel->Cancelled()) {
          plans[t] = Status::Cancelled("what-if optimization cancelled");
          return true;  // External cancel, not the deterministic failure.
        }
        plans[t] = Optimize(requests[task_request[t]]);
        return plans[t].ok();
      },
      [&](size_t t) {
        plans[t] = Status::Cancelled(
            "cancelled: a lower-indexed what-if task failed first");
      });

  // Phase 3: insert in task order (only tasks below the first failure hold
  // plans, so the cache contents depend on the failure point alone), then
  // hand each request its task's result.
  for (size_t t = 0; t < plans.size(); ++t) {
    if (plans[t].ok()) cache_->Insert(*task_key[t], *plans[t]);
  }
  for (size_t r = 0; r < requests.size(); ++r) {
    if (task_of[r] != SIZE_MAX) results[r] = plans[task_of[r]];
  }
  return results;
}

}  // namespace xia
