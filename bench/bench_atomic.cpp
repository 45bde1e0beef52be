// E12 — atomic query evaluation (Sec. 4.1).
// Claims: the reverse-DN-ordered store answers scoped atomic queries with
// range scans proportional to the subtree size, and a selective filter
// reads only the pages of its range that the bulk-loaded segment's page
// synopses (store/page_synopsis.h) admit for it — "atomic queries can be
// evaluated efficiently", the premise every theorem builds on. rd(scan)
// counts the store pages a whole-forest scan read and `skipped` the pages
// of its range it passed over unread; the two add up to the range.

#include "bench_util.h"
#include "exec/atomic.h"
#include "gen/dif_gen.h"
#include "gen/paper_data.h"

using namespace ndq;
using namespace ndq::bench;

int main() {
  PrintHeader("E12: atomic queries — scans, scopes and page synopses "
              "(bench_atomic)",
              "scoped range scans that skip the pages no match can be on");

  std::printf("\nscope locality (reads vs. subtree size):\n");
  std::printf("%10s %10s | %10s %10s %10s\n", "entries", "store_pgs",
              "rd(base)", "rd(one)", "rd(sub)");
  for (int scale : {1, 4, 16}) {
    gen::DifOptions opt;
    opt.num_orgs = 2 * scale;
    DirectoryInstance inst = gen::GenerateDif(opt);
    SimDisk disk;
    EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
    SimDisk scratch;
    Dn base = gen::MustDn("ou=userProfiles, dc=sub0, dc=org0, dc=com");
    AtomicFilter f = AtomicFilter::True();
    uint64_t reads[3];
    Scope scopes[3] = {Scope::kBase, Scope::kOne, Scope::kSub};
    for (int i = 0; i < 3; ++i) {
      disk.ResetStats();
      EntryList out =
          EvalAtomic(&scratch, store, base, scopes[i], f).TakeValue();
      reads[i] = disk.stats().page_reads;
      FreeRun(&scratch, &out).ok();
    }
    std::printf("%10zu %10llu | %10llu %10llu %10llu\n", inst.size(),
                (unsigned long long)store.num_pages(),
                (unsigned long long)reads[0], (unsigned long long)reads[1],
                (unsigned long long)reads[2]);
  }
  std::printf("  expected: reads track the subtree, not the directory.\n");

  std::printf("\nselective filters (whole-forest scope):\n");
  std::printf("%-28s | %8s | %10s %10s\n", "filter", "results", "rd(scan)",
              "skipped");
  gen::DifOptions opt;
  opt.num_orgs = 16;
  DirectoryInstance inst = gen::GenerateDif(opt);
  SimDisk disk;
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  SimDisk scratch;
  Dn root = gen::MustDn("dc=com");

  for (const char* filter_text :
       {"CANumber=9731000005", "uid=user7", "sourcePort=25",
        "SLARulePriority<=1", "priority>=3", "SourceAddress=204.*",
        "objectClass=SLADSAction", "objectClass=QHP"}) {
    AtomicFilter f = AtomicFilter::Parse(filter_text).TakeValue();
    OpTrace trace;
    disk.ResetStats();
    EntryList scan =
        EvalAtomic(&scratch, store, root, Scope::kSub, f, &trace).TakeValue();
    std::printf("%-28s | %8llu | %10llu %10llu\n", filter_text,
                (unsigned long long)scan.num_records,
                (unsigned long long)disk.stats().page_reads,
                (unsigned long long)trace.skipped_pages);
    FreeRun(&scratch, &scan).ok();
  }
  std::printf(
      "  expected: rd(scan) + skipped is the store's %llu pages; selective\n"
      "  filters read the few pages their synopses admit, low-selectivity\n"
      "  ones (objectClass=QHP) nearly all of them.\n",
      (unsigned long long)store.num_pages());
  return 0;
}
