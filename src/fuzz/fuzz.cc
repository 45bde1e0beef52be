#include "fuzz/fuzz.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "core/dn.h"
#include "dist/distributed.h"
#include "engine/engine.h"
#include "exec/operand_cache.h"
#include "exec/parallel_evaluator.h"
#include "fuzz/naive_eval.h"
#include "gen/random_forest.h"
#include "gen/random_query.h"
#include "query/optimize.h"
#include "query/parser.h"
#include "query/reference.h"
#include "query/rewrite.h"
#include "storage/fault_injector.h"
#include "storage/serde.h"
#include "store/directory_store.h"
#include "store/entry_store.h"

namespace ndq {
namespace fuzz {

namespace {

constexpr size_t kFuzzPageSize = 512;  // small pages -> multi-page lists
constexpr size_t kCachePages = 64;

std::string DiffEntries(const std::vector<Entry>& want,
                        const std::vector<Entry>& got) {
  std::ostringstream out;
  out << "want " << want.size() << " entries, got " << got.size();
  size_t n = std::min(want.size(), got.size());
  for (size_t i = 0; i < n; ++i) {
    if (want[i] == got[i]) continue;
    out << "; first mismatch at index " << i << ": want dn '"
        << want[i].dn().ToString() << "', got dn '" << got[i].dn().ToString()
        << "'";
    return out.str();
  }
  if (want.size() > n) {
    out << "; missing from index " << n << ": dn '"
        << want[n].dn().ToString() << "'";
  } else if (got.size() > n) {
    out << "; extra at index " << n << ": dn '" << got[n].dn().ToString()
        << "'";
  }
  return out.str();
}

// Topology text for the distributed oracles: one shard per forest root,
// plus (when the forest has any depth-2 entry) one delegated subtree so
// referral chasing and coordinator merging get exercised. Two replicas per
// shard, so the replica routing and failover paths get fuzzed too. Empty
// when the forest is.
std::string MakeTopologyText(const DirectoryInstance& instance) {
  std::string shards;
  const Entry* delegate = nullptr;
  size_t i = 0;
  for (const auto& [key, entry] : instance) {
    (void)key;
    if (entry.dn().depth() == 1) {
      shards += "shard s" + std::to_string(i++) + " " +
                entry.dn().ToString() + "\n";
    } else if (delegate == nullptr && entry.dn().depth() == 2) {
      delegate = &entry;
    }
  }
  if (shards.empty()) return shards;
  if (delegate != nullptr) {
    shards += "shard d0 " + delegate->dn().ToString() + "\n";
  }
  return "replicas 2\npage_size " + std::to_string(kFuzzPageSize) + "\n" +
         shards;
}

bool KeysContained(const std::vector<Entry>& sub,
                   const std::vector<Entry>& super, std::string* missing) {
  size_t j = 0;
  for (const Entry& e : sub) {
    while (j < super.size() && super[j].HierKey() < e.HierKey()) ++j;
    if (j >= super.size() || super[j].HierKey() != e.HierKey()) {
      *missing = e.dn().ToString();
      return false;
    }
  }
  return true;
}

std::vector<Entry> InstanceEntries(const DirectoryInstance& instance) {
  std::vector<Entry> entries;
  entries.reserve(instance.size());
  for (const auto& [key, entry] : instance) {
    (void)key;
    entries.push_back(entry);
  }
  return entries;
}

DirectoryInstance RebuildInstance(const std::vector<Entry>& entries) {
  DirectoryInstance inst(Schema(), /*validate=*/false);
  for (const Entry& e : entries) {
    inst.Add(e).ok();  // keys are unique by construction
  }
  return inst;
}

// Rebuilds an operator node with replaced operands / aggregate filter.
QueryPtr WithParts(const Query& node, QueryPtr q1, QueryPtr q2, QueryPtr q3,
                   std::optional<AggSelFilter> agg) {
  switch (node.op()) {
    case QueryOp::kAnd:
      return Query::And(std::move(q1), std::move(q2));
    case QueryOp::kOr:
      return Query::Or(std::move(q1), std::move(q2));
    case QueryOp::kDiff:
      return Query::Diff(std::move(q1), std::move(q2));
    case QueryOp::kParents:
    case QueryOp::kChildren:
    case QueryOp::kAncestors:
    case QueryOp::kDescendants:
      return Query::Hierarchy(node.op(), std::move(q1), std::move(q2),
                              std::move(agg));
    case QueryOp::kCoAncestors:
    case QueryOp::kCoDescendants:
      return Query::HierarchyConstrained(node.op(), std::move(q1),
                                         std::move(q2), std::move(q3),
                                         std::move(agg));
    case QueryOp::kSimpleAgg:
      return Query::SimpleAgg(std::move(q1), *agg);
    case QueryOp::kValueDn:
    case QueryOp::kDnValue:
      return Query::EmbeddedRef(node.op(), std::move(q1), std::move(q2),
                                node.ref_attr(), std::move(agg));
    default:
      return nullptr;  // leaves have no parts to replace
  }
}

// All one-step reductions of `node`: hoist an operand over its parent,
// drop an optional aggregate filter, or reduce inside one operand.
void Reductions(const QueryPtr& node, std::vector<QueryPtr>* out) {
  if (node->q1() == nullptr && node->q2() == nullptr) return;  // leaf
  for (const QueryPtr& child : {node->q1(), node->q2(), node->q3()}) {
    if (child != nullptr) out->push_back(child);
  }
  if (node->agg().has_value() && node->op() != QueryOp::kSimpleAgg) {
    out->push_back(WithParts(*node, node->q1(), node->q2(), node->q3(),
                             std::nullopt));
  }
  for (int slot = 0; slot < 3; ++slot) {
    const QueryPtr& child =
        slot == 0 ? node->q1() : (slot == 1 ? node->q2() : node->q3());
    if (child == nullptr) continue;
    std::vector<QueryPtr> sub;
    Reductions(child, &sub);
    for (QueryPtr& s : sub) {
      out->push_back(WithParts(
          *node, slot == 0 ? std::move(s) : node->q1(),
          slot == 1 ? std::move(s) : node->q2(),
          slot == 2 ? std::move(s) : node->q3(), node->agg()));
    }
  }
}

}  // namespace

uint64_t CaseSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

DirectoryInstance GenInstance(uint64_t case_seed,
                              const FuzzCaseOptions& gen) {
  gen::RandomForestOptions opt;
  opt.seed = static_cast<uint32_t>(case_seed ^ (case_seed >> 32));
  opt.num_entries = gen.num_entries;
  opt.weird_rdn_probability = gen.weird_rdn_probability;
  opt.extreme_int_probability = gen.extreme_int_probability;
  // Long tags sharing their first 8 bytes, and an "x" value's spelling
  // beside it: the edges of page synopses' string bounds and int keys.
  opt.long_tag_probability = 0.25;
  opt.spelled_x_probability = 0.2;
  return gen::RandomForest(opt);
}

QueryPtr GenQuery(uint64_t case_seed, const DirectoryInstance& instance,
                  const FuzzCaseOptions& gen) {
  std::mt19937 rng(static_cast<uint32_t>((case_seed >> 16) ^ case_seed) + 1);
  gen::RandomQueryOptions opt;
  opt.max_language = gen.max_language;
  return gen::RandomQuery(&rng, instance, opt);
}

std::vector<CheckFailure> CheckCase(const DirectoryInstance& instance,
                                    const QueryPtr& query,
                                    const FuzzOptions& options,
                                    uint64_t case_seed,
                                    uint64_t* checks_run) {
  std::vector<CheckFailure> failures;
  uint64_t local_checks = 0;
  auto fail = [&failures](std::string check, std::string detail) {
    failures.push_back({std::move(check), std::move(detail)});
  };
  auto done = [&]() {
    if (checks_run != nullptr) *checks_run += local_checks;
    return failures;
  };

  // Ground truth: the denotational semantics.
  Result<std::vector<const Entry*>> ref = EvaluateReference(*query, instance);
  ++local_checks;
  if (!ref.ok()) {
    fail("reference", "evaluation failed: " + ref.status().ToString());
    return done();
  }
  std::vector<Entry> want;
  want.reserve(ref->size());
  for (const Entry* e : *ref) want.push_back(*e);

  SimDisk disk(kFuzzPageSize);
  Result<EntryStore> store = EntryStore::BulkLoad(&disk, instance);
  if (!store.ok()) {
    fail("setup", "BulkLoad failed: " + store.status().ToString());
    return done();
  }

  auto check_entries = [&](const std::string& name,
                           Result<std::vector<Entry>> got) {
    ++local_checks;
    if (!got.ok()) {
      fail(name, "evaluation failed: " + got.status().ToString());
      return;
    }
    if (*got != want) fail(name, DiffEntries(want, *got));
  };

  // The sequential checks below use one uncached evaluator.
  ParallelEvaluator evaluator(&disk, &*store);

  // Whole-tree naive baselines.
  auto naive_entries = [&]() -> Result<std::vector<Entry>> {
    NDQ_ASSIGN_OR_RETURN(EntryList list,
                         NaiveEvaluate(&disk, *store, *query));
    Result<std::vector<Entry>> entries = ReadEntryList(&disk, list);
    Status freed = FreeRun(&disk, &list);
    if (!entries.ok()) return entries;
    NDQ_RETURN_IF_ERROR(freed);
    return entries;
  };
  check_entries("naive", naive_entries());

  // Evaluation at 1/2/4 threads over ONE shared operand cache: par1
  // starts from the empty cache, later runs serve leaves from lists the
  // earlier runs inserted, so a key collision or a scheduling dependence
  // shows up as a divergence.
  {
    OperandCache cache(&disk, kCachePages);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      ExecOptions opts;
      opts.parallelism = threads;
      ParallelEvaluator par(&disk, &*store, opts, &cache);
      check_entries("par" + std::to_string(threads),
                    par.EvaluateToEntries(*query));
    }
  }

  // Batched submission through the engine must be byte-identical to
  // one-at-a-time evaluation. The batch repeats Q and wraps it in
  // idempotent combinators, so the sharing census finds Q as a common
  // subtree and the shared-operand fast path (precompute once, serve the
  // other occurrences from the operand cache) actually runs — any
  // cache-key collision, stale snapshot or copy-out truncation shows up
  // as a divergence from the reference result.
  const std::vector<QueryPtr> batch = {query, query, Query::And(query, query),
                                       Query::Or(query, query)};
  auto check_batch = [&](const std::string& prefix, Engine& engine) {
    BatchResult batched = engine.OpenSession().RunBatch(batch);
    for (size_t i = 0; i < batched.outcomes.size(); ++i) {
      QueryOutcome& out = batched.outcomes[i];
      ++local_checks;
      const std::string name = prefix + std::to_string(i);
      if (!out.ok()) {
        fail(name, "evaluation failed: " + out.status.ToString());
      } else if (out.entries != want) {
        fail(name, DiffEntries(want, out.entries));
      }
    }
  };
  {
    EngineOptions engine_opts;
    engine_opts.cache_capacity_pages = kCachePages;
    Engine engine(&disk, &*store, engine_opts);
    check_batch("batch", engine);
  }

  // Rewrites must preserve M(Q) exactly.
  check_entries("rewrite", evaluator.EvaluateToEntries(*RewriteQuery(query)));
  // The cost-based optimizer's plan must be byte-identical to the
  // original: optimize0 checks the rewritten plan sequentially, optimize1
  // re-checks it under parallel evaluation with an operand cache (the
  // engine's configuration), so an illegal short-circuit, reorder or
  // pushdown shows up as a divergence from the reference result.
  {
    QueryPtr optimized = OptimizeQuery(*store, RewriteQuery(query)).plan;
    check_entries("optimize0", evaluator.EvaluateToEntries(*optimized));
    OperandCache cache(&disk, kCachePages);
    ExecOptions par_opts;
    par_opts.parallelism = 2;
    ParallelEvaluator par(&disk, &*store, par_opts, &cache);
    check_entries("optimize1", par.EvaluateToEntries(*optimized));
  }
  // Thm 8.2(d) expansion: exact on prefix-closed instances, which
  // RandomForest guarantees (children only grow under existing parents).
  check_entries("expand",
                evaluator.EvaluateToEntries(*ExpandParentsChildren(query)));

  // Query text round-trip: reparse, require a ToString fixed point, and
  // re-evaluate the reparsed tree.
  {
    ++local_checks;
    std::string text = query->ToString();
    Result<QueryPtr> reparsed = ParseQuery(text);
    if (!reparsed.ok()) {
      fail("query-roundtrip",
           "reparse failed: " + reparsed.status().ToString() + " for " + text);
    } else if ((*reparsed)->ToString() != text) {
      fail("query-roundtrip", "not a ToString fixed point: '" + text +
                                  "' reparses to '" + (*reparsed)->ToString() +
                                  "'");
    } else {
      check_entries("query-roundtrip",
                    evaluator.EvaluateToEntries(**reparsed));
    }
  }

  // Metamorphic identities.
  check_entries("idempotent-and",
                evaluator.EvaluateToEntries(*Query::And(query, query)));
  check_entries("idempotent-or",
                evaluator.EvaluateToEntries(*Query::Or(query, query)));
  {
    ++local_checks;
    Result<std::vector<Entry>> diff =
        evaluator.EvaluateToEntries(*Query::Diff(query, query));
    if (!diff.ok()) {
      fail("self-diff", "evaluation failed: " + diff.status().ToString());
    } else if (!diff->empty()) {
      fail("self-diff", "(- Q Q) returned " + std::to_string(diff->size()) +
                            " entries; first dn '" +
                            (*diff)[0].dn().ToString() + "'");
    }
  }

  // Scope containment: a leaf's base/one results are subsets of its sub
  // result. (Null bases only admit scope sub, so skip those.)
  {
    size_t checked = 0;
    for (const Query* leaf : query->Leaves()) {
      if (leaf->op() != QueryOp::kAtomic || leaf->base().IsNull()) continue;
      if (checked++ >= 2) break;  // bound the per-case cost
      ++local_checks;
      Result<std::vector<Entry>> at_base = evaluator.EvaluateToEntries(
          *Query::Atomic(leaf->base(), Scope::kBase, leaf->filter()));
      Result<std::vector<Entry>> at_one = evaluator.EvaluateToEntries(
          *Query::Atomic(leaf->base(), Scope::kOne, leaf->filter()));
      Result<std::vector<Entry>> at_sub = evaluator.EvaluateToEntries(
          *Query::Atomic(leaf->base(), Scope::kSub, leaf->filter()));
      if (!at_base.ok() || !at_one.ok() || !at_sub.ok()) {
        fail("scope-monotone", "leaf evaluation failed for base '" +
                                   leaf->base().ToString() + "'");
        continue;
      }
      std::string missing;
      if (!KeysContained(*at_base, *at_sub, &missing) ||
          !KeysContained(*at_one, *at_sub, &missing)) {
        fail("scope-monotone", "dn '" + missing +
                                   "' matched at a narrower scope but not "
                                   "at sub, base '" +
                                   leaf->base().ToString() + "'");
      }
    }
  }

  // Every dn of the instance must survive ToString -> Parse exactly.
  {
    ++local_checks;
    for (const auto& [key, entry] : instance) {
      (void)key;
      std::string text = entry.dn().ToString();
      Result<Dn> back = Dn::Parse(text);
      if (!back.ok()) {
        fail("dn-roundtrip",
             "'" + text + "' fails to reparse: " + back.status().ToString());
        break;
      }
      if (back->ToString() != text ||
          back->HierKey() != entry.dn().HierKey()) {
        fail("dn-roundtrip", "'" + text + "' reparses to '" +
                                 back->ToString() + "'");
        break;
      }
    }
  }

  // Online-mutation oracle: replay a seeded mutation script (replace /
  // add-child / remove-leaf / deliberately-failing ops) against a
  // DirectoryStore with a tiny memtable — so flushes and compactions
  // fire mid-script — and a std::map reference in lockstep. The store's
  // merged scan must match the reference exactly at checkpoints, failed
  // ops must leave the store byte-identical (mutation atomicity), and
  // the fuzz query over the mutated store must match the reference
  // semantics of the mutated instance.
  {
    SimDisk mdisk(kFuzzPageSize);
    DirectoryStoreOptions sopt;
    sopt.memtable_limit = 8;
    sopt.max_segments = 2;
    sopt.validate = false;
    DirectoryStore mstore(&mdisk, Schema(), sopt);
    std::map<std::string, Entry> ref;
    Status seed_status = Status::OK();
    for (const auto& [key, entry] : instance) {
      seed_status = mstore.Put(entry);
      if (!seed_status.ok()) break;
      ref[key] = entry;
    }
    ++local_checks;
    if (!seed_status.ok()) {
      fail("mutate", "seeding failed: " + seed_status.ToString());
    } else {
      auto compare_scan = [&](const std::string& when) -> bool {
        auto it = ref.begin();
        std::string detail;
        Status s = mstore.ScanRange(
            "", "", [&](std::string_view record) -> Status {
              NDQ_ASSIGN_OR_RETURN(Entry e, DeserializeEntry(record));
              if (it == ref.end()) {
                return Status::Corruption("extra entry '" +
                                          e.dn().ToString() + "'");
              }
              if (!(it->second == e)) {
                return Status::Corruption("mismatch at '" +
                                          e.dn().ToString() + "'");
              }
              ++it;
              return Status::OK();
            });
        if (s.ok() && it != ref.end()) {
          s = Status::Corruption("store is missing '" +
                                 it->second.dn().ToString() + "'");
        }
        if (!s.ok()) {
          fail("mutate", when + ": " + s.ToString());
          return false;
        }
        return true;
      };

      std::mt19937 mrng(
          static_cast<uint32_t>(CaseSeed(case_seed, 777) & 0xffffffffu));
      auto nth_key = [&](size_t i) {
        auto it = ref.begin();
        std::advance(it, i);
        return it;
      };
      Status script_status = Status::OK();
      bool scans_ok = true;
      for (int op = 0; op < 40 && scans_ok && !ref.empty(); ++op) {
        size_t pick = mrng() % ref.size();
        auto it = nth_key(pick);
        switch (mrng() % 5) {
          case 0: {  // replace with a mutated copy
            Entry e = it->second;
            e.AddInt("mutationGen", op);
            script_status = mstore.Put(e);
            if (script_status.ok()) it->second = e;
            break;
          }
          case 1: {  // add a fresh child under an existing entry
            Result<Rdn> rdn =
                Rdn::Single("cn", "mut" + std::to_string(op));
            if (!rdn.ok()) {
              script_status = rdn.status();
              break;
            }
            Entry child(it->second.dn().Child(*rdn));
            child.AddInt("mutationGen", op);
            script_status = mstore.Add(child);
            if (script_status.ok()) ref[child.HierKey()] = child;
            break;
          }
          case 2: {  // remove, when the pick is a leaf
            auto next = std::next(it);
            if (next != ref.end() &&
                KeyIsAncestor(it->first, next->first)) {
              break;  // interior entry: removal must be rejected below
            }
            script_status = mstore.Remove(it->second.dn());
            if (script_status.ok()) ref.erase(it);
            break;
          }
          case 3: {  // Add over a bound dn MUST fail and change nothing
            Status s = mstore.Add(it->second);
            if (s.code() != StatusCode::kAlreadyExists) {
              script_status = Status::Corruption(
                  "Add over bound dn returned " + s.ToString());
            }
            scans_ok = compare_scan("after rejected Add");
            break;
          }
          case 4: {  // removing an interior entry MUST fail atomically
            auto next = std::next(it);
            if (next == ref.end() ||
                !KeyIsAncestor(it->first, next->first)) {
              break;  // leaf: nothing to reject
            }
            Status s = mstore.Remove(it->second.dn());
            if (s.ok()) {
              script_status = Status::Corruption(
                  "interior remove of '" + it->second.dn().ToString() +
                  "' succeeded");
            }
            scans_ok = compare_scan("after rejected interior Remove");
            break;
          }
        }
        if (!script_status.ok()) break;
        if (op % 10 == 9) scans_ok = compare_scan("mid-script");
      }
      if (!script_status.ok()) {
        fail("mutate", "script op failed: " + script_status.ToString());
      } else if (scans_ok) {
        Status fs = mstore.Flush();
        Status cs = fs.ok() ? mstore.Compact() : fs;
        if (!cs.ok()) {
          fail("mutate", "flush/compact failed: " + cs.ToString());
        } else if (compare_scan("after compaction")) {
          // The fuzz query over the mutated store vs the reference
          // semantics of the mutated instance.
          std::vector<Entry> mutated;
          mutated.reserve(ref.size());
          for (const auto& [k, e] : ref) {
            (void)k;
            mutated.push_back(e);
          }
          DirectoryInstance mut_inst = RebuildInstance(mutated);
          Result<std::vector<const Entry*>> mref =
              EvaluateReference(*query, mut_inst);
          ++local_checks;
          if (!mref.ok()) {
            fail("mutate",
                 "reference on mutated instance failed: " +
                     mref.status().ToString());
          } else {
            std::vector<Entry> mwant;
            mwant.reserve(mref->size());
            for (const Entry* e : *mref) mwant.push_back(*e);
            ParallelEvaluator mev(&mdisk, &mstore);
            Result<std::vector<Entry>> mgot =
                mev.EvaluateToEntries(*query);
            if (!mgot.ok()) {
              fail("mutate", "query on mutated store failed: " +
                                 mgot.status().ToString());
            } else if (*mgot != mwant) {
              fail("mutate", DiffEntries(mwant, *mgot));
            }
          }
        }
      }
    }
  }

  // Distributed oracles, against a replicated topology.
  std::string topology_text = MakeTopologyText(instance);
  if (options.with_distributed && !topology_text.empty()) {
    Result<TopologyConfig> topology = TopologyConfig::Parse(topology_text);
    auto build = [&]() -> Result<DistributedDirectory> {
      NDQ_RETURN_IF_ERROR(topology.status());
      return DistributedDirectory::Build(instance, *topology);
    };
    Result<DistributedDirectory> fleet = build();
    ++local_checks;
    if (!fleet.ok()) {
      fail("dist", "Build failed: " + fleet.status().ToString());
    } else {
      fleet->set_allow_degraded(false);
      check_entries("dist", fleet->Execute(*query));
    }

    if (options.with_faults) {
      Result<DistributedDirectory> faulty = build();
      ++local_checks;
      if (!faulty.ok()) {
        fail("dist-fault", "Build failed: " + faulty.status().ToString());
      } else {
        faulty->set_allow_degraded(false);
        // One seeded transient fault per replica disk, injected after the
        // stores are built so only evaluation-time I/O can fail. The
        // retry/failover machinery must absorb every one-shot fault: any
        // divergence or error here is a recovery bug.
        std::vector<std::unique_ptr<FaultInjector>> injectors;
        size_t si = 0;
        for (const auto& server : faulty->servers()) {
          auto inj = std::make_unique<FaultInjector>();
          uint64_t nth = 1 + CaseSeed(case_seed, 1000 + si) % 60;
          inj->AddRule(FaultInjector::FailNth(nth));
          server->disk()->set_fault_injector(inj.get());
          injectors.push_back(std::move(inj));
          ++si;
        }
        // Additionally take one whole replica down per shard (seeded
        // choice) — results must still be exact via failover.
        size_t shard_i = 0;
        for (const auto& shard : faulty->shards()) {
          if (shard->num_replicas() > 1) {
            size_t down = CaseSeed(case_seed, 2000 + shard_i) %
                          shard->num_replicas();
            shard->replica(down)->set_down(true);
          }
          ++shard_i;
        }
        check_entries("dist-fault", faulty->Execute(*query));
        for (const auto& server : faulty->servers()) {
          server->disk()->set_fault_injector(nullptr);
        }
      }
    }

    // The engine's fleet path: the same batch through a distributed
    // engine, whose one evaluator takes leaves and single-shard subtrees
    // from the fleet and whose batch precompute publishes what the shards
    // returned. Fail-stop, so a degraded list cannot pass for an answer.
    EngineOptions engine_opts;
    engine_opts.backend = EngineBackend::kDistributed;
    if (topology.ok()) engine_opts.topology = *topology;
    engine_opts.cache_capacity_pages = kCachePages;
    Engine engine(instance, engine_opts);
    ++local_checks;
    if (!engine.init_status().ok()) {
      fail("dist-batch", "Build failed: " + engine.init_status().ToString());
    } else {
      engine.fleet()->set_allow_degraded(false);
      check_batch("dist-batch", engine);
    }
  }

  return done();
}

DirectoryInstance ShrinkInstance(const DirectoryInstance& instance,
                                 const QueryPtr& query,
                                 const FailurePredicate& fails) {
  std::vector<Entry> entries = InstanceEntries(instance);
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < entries.size(); ++i) {
      // Remove the whole subtree rooted at entries[i]; removing anything
      // less would break prefix-closure (and DirectoryInstance::Remove
      // rightly rejects non-leaf removals).
      const std::string root_key = entries[i].HierKey();
      std::vector<Entry> candidate;
      candidate.reserve(entries.size());
      for (const Entry& e : entries) {
        if (e.HierKey() == root_key ||
            KeyIsAncestor(root_key, e.HierKey())) {
          continue;
        }
        candidate.push_back(e);
      }
      DirectoryInstance cand_inst = RebuildInstance(candidate);
      if (fails(cand_inst, query)) {
        entries = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return RebuildInstance(entries);
}

QueryPtr ShrinkQuery(const DirectoryInstance& instance, const QueryPtr& query,
                     const FailurePredicate& fails) {
  QueryPtr current = query;
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<QueryPtr> candidates;
    Reductions(current, &candidates);
    for (const QueryPtr& cand : candidates) {
      if (cand != nullptr && fails(instance, cand)) {
        current = cand;
        progress = true;
        break;
      }
    }
  }
  return current;
}

FuzzReport RunFuzz(const FuzzOptions& options) {
  FuzzReport report;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < options.iterations; ++i) {
    if (options.time_budget_ms > 0) {
      auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
      if (static_cast<uint64_t>(elapsed) >= options.time_budget_ms) break;
    }
    const uint64_t case_seed = CaseSeed(options.seed, i);
    DirectoryInstance instance = GenInstance(case_seed, options.gen);
    QueryPtr query = GenQuery(case_seed, instance, options.gen);
    std::vector<CheckFailure> failures =
        CheckCase(instance, query, options, case_seed, &report.checks);
    ++report.cases;
    if (failures.empty()) continue;

    Divergence div;
    div.case_seed = case_seed;
    div.check = failures[0].check;
    div.detail = failures[0].detail;
    div.original_query_text = query->ToString();
    div.original_entries = instance.size();

    DirectoryInstance shrunk_inst = RebuildInstance(InstanceEntries(instance));
    QueryPtr shrunk_query = query;
    if (options.shrink) {
      const std::string target = div.check;
      FailurePredicate pred = [&](const DirectoryInstance& ci,
                                  const QueryPtr& cq) {
        for (const CheckFailure& f : CheckCase(ci, cq, options, case_seed)) {
          if (f.check == target) return true;
        }
        return false;
      };
      // Query first (cheap on the full instance), then the instance, then
      // the query again — a smaller instance often unlocks further hoists.
      shrunk_query = ShrinkQuery(shrunk_inst, shrunk_query, pred);
      shrunk_inst = ShrinkInstance(shrunk_inst, shrunk_query, pred);
      shrunk_query = ShrinkQuery(shrunk_inst, shrunk_query, pred);
    }

    div.repro.check = div.check;
    div.repro.seed = case_seed;
    div.repro.query_text = shrunk_query->ToString();
    div.repro.entries = InstanceEntries(shrunk_inst);
    if (!options.out_dir.empty()) {
      std::string path = options.out_dir + "/case-" +
                         std::to_string(case_seed) + "-" + div.check +
                         ".ndqrepro";
      if (div.repro.SaveTo(path).ok()) div.saved_path = path;
    }
    report.divergences.push_back(std::move(div));
  }
  return report;
}

Result<std::vector<CheckFailure>> ReplayRepro(const Repro& repro,
                                              const FuzzOptions& options) {
  NDQ_ASSIGN_OR_RETURN(DirectoryInstance instance, repro.BuildInstance());
  NDQ_ASSIGN_OR_RETURN(QueryPtr query, ParseQuery(repro.query_text));
  return CheckCase(instance, query, options, repro.seed);
}

}  // namespace fuzz
}  // namespace ndq
