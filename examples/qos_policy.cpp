// QoS policy enforcement (Example 2.1 / Fig. 12): a router asks the
// directory which action applies to a packet, with priority and exception
// resolution, over a synthetic multi-domain policy directory.

#include <cstdio>

#include "apps/qos.h"
#include "engine/engine.h"
#include "testing_support.h"

using ndq::apps::PacketProfile;
using ndq::apps::PolicyDecision;
using ndq::apps::QosPolicyEngine;

namespace {

void Enforce(QosPolicyEngine* engine, const char* what,
             const PacketProfile& packet) {
  std::printf("--- packet: %s\n", what);
  std::printf("    src=%s port=%lld t=%lld dow=%lld\n",
              packet.source_address.c_str(),
              (long long)packet.source_port, (long long)packet.timestamp,
              (long long)packet.day_of_week);
  ndq::Result<PolicyDecision> d = engine->Match(packet);
  if (!d.ok()) {
    std::printf("    error: %s\n", d.status().ToString().c_str());
    return;
  }
  std::printf("    applicable policies: %zu, winners: %zu\n",
              d->applicable_policies, d->policies.size());
  for (const ndq::Entry& p : d->policies) {
    std::printf("    policy %s (priority %s)\n",
                p.Values("SLAPolicyName").at(0).ToString().c_str(),
                p.Values("SLARulePriority").at(0).ToString().c_str());
  }
  for (const ndq::Entry& a : d->actions) {
    std::printf("    => action %s: %s\n",
                a.Values("DSActionName").at(0).ToString().c_str(),
                a.Values("DSPermission").at(0).ToString().c_str());
  }
  if (d->actions.empty()) std::printf("    => default treatment\n");
}

}  // namespace

int main() {
  // The paper's own Fig. 12 fragment...
  {
    std::printf("== Figure 12 policy directory (dc=research) ==\n");
    ndq::DirectoryInstance inst = ndq::gen::PaperInstance();
    ndq::SimDisk disk, scratch;
    ndq::EntryStore store =
        ndq::EntryStore::BulkLoad(&disk, inst).TakeValue();
    ndq::Engine ndq_engine(&scratch, &store);
    QosPolicyEngine engine(
        &ndq_engine, ndq::gen::MustDn("dc=research, dc=att, dc=com"));

    PacketProfile weekend_packet;
    weekend_packet.source_address = "204.178.16.5";
    weekend_packet.timestamp = 19980606120000;
    weekend_packet.day_of_week = 6;
    Enforce(&engine, "weekend data traffic from the lsplitOff range",
            weekend_packet);

    PacketProfile weekday_packet = weekend_packet;
    weekday_packet.timestamp = 19990202120000;
    weekday_packet.day_of_week = 2;
    Enforce(&engine, "same source, outside every validity period",
            weekday_packet);
  }

  // ...and a larger synthetic deployment.
  {
    std::printf("\n== synthetic policy directory ==\n");
    ndq::gen::DifOptions opt;
    opt.num_orgs = 2;
    opt.subdomains_per_org = 2;
    opt.policies_per_domain = 20;
    opt.profiles_per_domain = 12;
    ndq::DirectoryInstance inst = ndq::gen::GenerateDif(opt);
    std::printf("directory: %zu entries\n", inst.size());
    ndq::SimDisk disk, scratch;
    ndq::EntryStore store =
        ndq::EntryStore::BulkLoad(&disk, inst).TakeValue();
    ndq::Engine ndq_engine(&scratch, &store);
    QosPolicyEngine engine(&ndq_engine,
                           ndq::gen::MustDn("dc=sub0, dc=org0, dc=com"));

    PacketProfile smtp;
    smtp.source_address = "205.44.3.2";
    smtp.source_port = 25;
    smtp.timestamp = 19980410120000;
    smtp.day_of_week = 5;
    Enforce(&engine, "SMTP traffic into dc=sub0", smtp);

    PacketProfile web = smtp;
    web.source_port = 443;
    Enforce(&engine, "HTTPS traffic into dc=sub0", web);
  }
  return 0;
}
