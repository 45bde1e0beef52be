// TOPS dial-by-name (Example 2.2 / Fig. 11): reach a subscriber by
// logical name; the directory picks the call appearances of the highest-
// priority query handling profile that admits the caller and time, and
// policies update dynamically through the mutable store.

#include <cstdio>

#include "apps/tops.h"
#include "engine/engine.h"
#include "store/directory_store.h"
#include "testing_support.h"

using ndq::apps::CallContext;
using ndq::apps::CallResolution;
using ndq::apps::TopsResolver;

namespace {

void Dial(TopsResolver* resolver, const char* what, const char* callee,
          const CallContext& ctx) {
  std::printf("--- dial %s (%s)\n", callee, what);
  ndq::Result<CallResolution> r = resolver->Resolve(callee, ctx);
  if (!r.ok()) {
    std::printf("    error: %s\n", r.status().ToString().c_str());
    return;
  }
  if (!r->subscriber_found) {
    std::printf("    no such subscriber\n");
    return;
  }
  if (!r->winning_qhp.has_value()) {
    std::printf("    no profile admits this call\n");
    return;
  }
  std::printf("    profile: %s\n",
              r->winning_qhp->Values("QHPName").at(0).ToString().c_str());
  if (r->appearances.empty()) {
    std::printf("    (no call appearances: unreachable by this profile)\n");
  }
  for (const ndq::Entry& ca : r->appearances) {
    const std::vector<ndq::Value> desc = ca.Values("description");
    std::printf("    ring %s%s%s\n",
                ca.Values("CANumber").at(0).ToString().c_str(),
                desc.empty() ? "" : "  # ",
                desc.empty() ? "" : desc[0].ToString().c_str());
  }
}

}  // namespace

int main() {
  // Load Fig. 11 into the *mutable* store: subscriber policies are
  // created and modified dynamically in TOPS.
  ndq::SimDisk disk, scratch;
  ndq::DirectoryStore store(&disk, ndq::gen::PaperSchema());
  ndq::DirectoryInstance inst = ndq::gen::PaperInstance();
  for (const auto& [key, entry] : inst) {
    (void)key;
    ndq::Status s = store.Add(entry);
    if (!s.ok()) {
      std::printf("load error: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  // One engine over the mutable store; the resolver opens a session on
  // it. Store mutations below are followed by InvalidateCaches().
  ndq::Engine engine(&scratch, &store, {}, &disk);
  TopsResolver resolver(&engine,
                        ndq::gen::MustDn("dc=research, dc=att, dc=com"));

  Dial(&resolver, "Wednesday 10:00", "jag", CallContext{"", 1000, 3});
  Dial(&resolver, "Saturday 12:00", "jag", CallContext{"", 1200, 6});
  Dial(&resolver, "Wednesday 05:00", "jag", CallContext{"", 500, 3});
  Dial(&resolver, "unknown name", "milo", CallContext{"", 1000, 3});

  // Dynamic update: jag enables do-not-disturb at top priority.
  std::printf("\n[jag adds a do-not-disturb profile]\n");
  ndq::Dn jag = ndq::gen::MustDn(
      "uid=jag, ou=userProfiles, dc=research, dc=att, dc=com");
  ndq::Dn dnd = jag.Child(ndq::Rdn::Single("QHPName", "dnd").TakeValue());
  ndq::Entry q(dnd);
  q.AddClass("QHP");
  q.AddString("QHPName", "dnd");
  q.AddInt("priority", 0);
  if (!store.Add(q).ok()) return 1;
  engine.InvalidateCaches();

  Dial(&resolver, "Wednesday 10:00, DND active", "jag",
       CallContext{"", 1000, 3});

  std::printf("\n[jag removes do-not-disturb]\n");
  if (!store.Remove(dnd).ok()) return 1;
  engine.InvalidateCaches();
  Dial(&resolver, "Wednesday 10:00 again", "jag", CallContext{"", 1000, 3});

  std::printf("\nstore: %llu entries, %zu segment(s), memtable %zu\n",
              (unsigned long long)store.num_entries(), store.num_segments(),
              store.memtable_size());
  return 0;
}
