#include "gen/paper_data.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace ndq {
namespace gen {

namespace {

[[noreturn]] void DieOnFixtureFailure(const char* what, const Status& st) {
  std::fprintf(stderr, "paper_data: %s failed: %s\n", what,
               st.ToString().c_str());
  std::abort();
}

}  // namespace

Result<Schema> TryPaperSchema() {
  Schema s;
  // Attributes.
  NDQ_RETURN_IF_ERROR(s.AddAttribute("dc", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("ou", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("commonName", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("surName", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("uid", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("telephoneNumber", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("description", TypeKind::kString));
  // TOPS.
  NDQ_RETURN_IF_ERROR(s.AddAttribute("QHPName", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("priority", TypeKind::kInt));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("startTime", TypeKind::kInt));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("endTime", TypeKind::kInt));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("daysOfWeek", TypeKind::kInt));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("CANumber", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("timeOut", TypeKind::kInt));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("callerUid", TypeKind::kString));
  // QoS / SLA (schema after Chaudhury et al. [11]).
  NDQ_RETURN_IF_ERROR(s.AddAttribute("SLAPolicyName", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("SLAPolicyScope", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("SLARulePriority", TypeKind::kInt));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("SLAExceptionRef", TypeKind::kDn));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("SLATPRef", TypeKind::kDn));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("SLAPVPRef", TypeKind::kDn));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("SLADSActRef", TypeKind::kDn));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("TPName", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("SourceAddress", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("DestAddress", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("sourcePort", TypeKind::kInt));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("destPort", TypeKind::kInt));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("protocol", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("PVPName", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("PVStartTime", TypeKind::kInt));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("PVEndTime", TypeKind::kInt));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("PVDayOfWeek", TypeKind::kInt));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("DSActionName", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("DSPermission", TypeKind::kString));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("DSInProfilePeakRate", TypeKind::kInt));
  NDQ_RETURN_IF_ERROR(s.AddAttribute("DSDropPriority", TypeKind::kInt));
  // Classes.
  NDQ_RETURN_IF_ERROR(s.AddClass("dcObject", {"dc"}));
  NDQ_RETURN_IF_ERROR(s.AddClass("domain", {"dc", "description"}));
  NDQ_RETURN_IF_ERROR(s.AddClass("organizationalUnit", {"ou", "description"}));
  NDQ_RETURN_IF_ERROR(s.AddClass(
      "inetOrgPerson",
      {"commonName", "surName", "uid", "telephoneNumber", "description"}));
  NDQ_RETURN_IF_ERROR(
      s.AddClass("TOPSSubscriber", {"uid", "commonName", "surName"}));
  NDQ_RETURN_IF_ERROR(s.AddClass("QHP", {"QHPName", "priority", "startTime",
                                         "endTime", "daysOfWeek",
                                         "callerUid"}));
  NDQ_RETURN_IF_ERROR(s.AddClass(
      "callAppearance", {"CANumber", "priority", "timeOut", "description"}));
  NDQ_RETURN_IF_ERROR(s.AddClass(
      "SLAPolicyRules",
      {"SLAPolicyName", "SLAPolicyScope", "SLARulePriority",
       "SLAExceptionRef", "SLATPRef", "SLAPVPRef", "SLADSActRef"}));
  NDQ_RETURN_IF_ERROR(s.AddClass(
      "trafficProfile", {"TPName", "SourceAddress", "DestAddress",
                         "sourcePort", "destPort", "protocol"}));
  NDQ_RETURN_IF_ERROR(s.AddClass(
      "policyValidityPeriod",
      {"PVPName", "PVStartTime", "PVEndTime", "PVDayOfWeek"}));
  NDQ_RETURN_IF_ERROR(s.AddClass(
      "SLADSAction", {"DSActionName", "DSPermission", "DSInProfilePeakRate",
                      "DSDropPriority"}));
  return s;
}

Schema PaperSchema() {
  Result<Schema> s = TryPaperSchema();
  if (!s.ok()) DieOnFixtureFailure("PaperSchema", s.status());
  return s.TakeValue();
}

Dn MustDn(const std::string& text) {
  Result<Dn> r = Dn::Parse(text);
  if (!r.ok()) DieOnFixtureFailure(("MustDn '" + text + "'").c_str(),
                                   r.status());
  return r.TakeValue();
}

/// Builds the directory fragments of Figures 1, 11 and 12 in one instance.
Result<DirectoryInstance> TryPaperInstance() {
  NDQ_ASSIGN_OR_RETURN(Schema schema, TryPaperSchema());
  DirectoryInstance inst(std::move(schema));
  auto add = [&](const std::string& dn_text,
                 const std::vector<std::string>& classes,
                 const std::vector<std::pair<std::string, std::string>>&
                     raw_pairs) -> Status {
    NDQ_ASSIGN_OR_RETURN(Dn dn, Dn::Parse(dn_text));
    Entry e(std::move(dn));
    for (const std::string& c : classes) e.AddClass(c);
    const Schema& s = inst.schema();
    for (const auto& [attr, text] : raw_pairs) {
      NDQ_ASSIGN_OR_RETURN(TypeKind t, s.AttributeType(attr));
      NDQ_ASSIGN_OR_RETURN(Value v, ParseValueAs(t, text));
      e.AddValue(attr, std::move(v));
    }
    // Satisfy rdn(r) subseteq val(r).
    const Rdn rdn = e.dn().rdn();
    for (const auto& [attr, text] : rdn.pairs()) {
      NDQ_ASSIGN_OR_RETURN(TypeKind t, s.AttributeType(attr));
      NDQ_ASSIGN_OR_RETURN(Value v, ParseValueAs(t, text));
      e.AddValue(attr, std::move(v));
    }
    return inst.Add(std::move(e));
  };

  // Figure 1: higher levels of the DIF.
  NDQ_RETURN_IF_ERROR(add("dc=com", {"dcObject"}, {}));
  NDQ_RETURN_IF_ERROR(add("dc=att, dc=com", {"dcObject", "domain"}, {}));
  NDQ_RETURN_IF_ERROR(
      add("dc=research, dc=att, dc=com", {"dcObject"}, {}));
  NDQ_RETURN_IF_ERROR(
      add("dc=corona, dc=research, dc=att, dc=com", {"dcObject"}, {}));

  // Figure 11: TOPS fragments.
  NDQ_RETURN_IF_ERROR(add("ou=userProfiles, dc=research, dc=att, dc=com",
                          {"organizationalUnit"}, {}));
  NDQ_RETURN_IF_ERROR(
      add("uid=jag, ou=userProfiles, dc=research, dc=att, dc=com",
          {"inetOrgPerson", "TOPSSubscriber"},
          {{"commonName", "h jagadish"}, {"surName", "jagadish"}}));
  NDQ_RETURN_IF_ERROR(
      add("QHPName=weekend, uid=jag, ou=userProfiles, dc=research, dc=att, "
          "dc=com",
          {"QHP"},
          {{"daysOfWeek", "6"}, {"daysOfWeek", "7"}, {"priority", "1"}}));
  NDQ_RETURN_IF_ERROR(
      add("QHPName=workinghours, uid=jag, ou=userProfiles, dc=research, "
          "dc=att, dc=com",
          {"QHP"},
          {{"startTime", "830"}, {"endTime", "1730"}, {"priority", "2"}}));
  NDQ_RETURN_IF_ERROR(
      add("CANumber=9733608750, QHPName=workinghours, uid=jag, "
          "ou=userProfiles, dc=research, dc=att, dc=com",
          {"callAppearance"}, {{"priority", "1"}, {"timeOut", "30"}}));
  NDQ_RETURN_IF_ERROR(
      add("CANumber=9733608751, QHPName=workinghours, uid=jag, "
          "ou=userProfiles, dc=research, dc=att, dc=com",
          {"callAppearance"},
          {{"priority", "2"},
           {"timeOut", "20"},
           {"description", "secretary"}}));

  // Figure 12: QoS policy fragments.
  NDQ_RETURN_IF_ERROR(
      add("ou=networkPolicies, dc=research, dc=att, dc=com",
          {"organizationalUnit"}, {}));
  NDQ_RETURN_IF_ERROR(
      add("ou=SLAPolicyRules, ou=networkPolicies, dc=research, dc=att, "
          "dc=com",
          {"organizationalUnit"}, {}));
  NDQ_RETURN_IF_ERROR(
      add("ou=trafficProfile, ou=networkPolicies, dc=research, dc=att, "
          "dc=com",
          {"organizationalUnit"}, {}));
  NDQ_RETURN_IF_ERROR(
      add("ou=policyValidityPeriod, ou=networkPolicies, dc=research, "
          "dc=att, dc=com",
          {"organizationalUnit"}, {}));
  NDQ_RETURN_IF_ERROR(
      add("ou=SLADSAction, ou=networkPolicies, dc=research, dc=att, dc=com",
          {"organizationalUnit"}, {}));
  NDQ_RETURN_IF_ERROR(
      add("SLAPolicyName=dso, ou=SLAPolicyRules, ou=networkPolicies, "
          "dc=research, dc=att, dc=com",
          {"SLAPolicyRules"},
          {{"SLAPolicyScope", "DataTraffic"},
           {"SLARulePriority", "2"},
           {"SLAExceptionRef",
            "SLAPolicyName=fatt, ou=SLAPolicyRules, ou=networkPolicies, "
            "dc=research, dc=att, dc=com"},
           {"SLAExceptionRef",
            "SLAPolicyName=mail, ou=SLAPolicyRules, ou=networkPolicies, "
            "dc=research, dc=att, dc=com"},
           {"SLATPRef",
            "TPName=lsplitOff, ou=trafficProfile, ou=networkPolicies, "
            "dc=research, dc=att, dc=com"},
           {"SLATPRef",
            "TPName=csplitOff, ou=trafficProfile, ou=networkPolicies, "
            "dc=research, dc=att, dc=com"},
           {"SLAPVPRef",
            "PVPName=1998weekend, ou=policyValidityPeriod, "
            "ou=networkPolicies, dc=research, dc=att, dc=com"},
           {"SLAPVPRef",
            "PVPName=1998thanksgiving, ou=policyValidityPeriod, "
            "ou=networkPolicies, dc=research, dc=att, dc=com"},
           {"SLADSActRef",
            "DSActionName=denyAll, ou=SLADSAction, ou=networkPolicies, "
            "dc=research, dc=att, dc=com"}}));
  NDQ_RETURN_IF_ERROR(
      add("SLAPolicyName=fatt, ou=SLAPolicyRules, ou=networkPolicies, "
          "dc=research, dc=att, dc=com",
          {"SLAPolicyRules"},
          {{"SLAPolicyScope", "DataTraffic"}, {"SLARulePriority", "1"}}));
  NDQ_RETURN_IF_ERROR(
      add("SLAPolicyName=mail, ou=SLAPolicyRules, ou=networkPolicies, "
          "dc=research, dc=att, dc=com",
          {"SLAPolicyRules"},
          {{"SLAPolicyScope", "DataTraffic"}, {"SLARulePriority", "3"}}));
  NDQ_RETURN_IF_ERROR(
      add("TPName=lsplitOff, ou=trafficProfile, ou=networkPolicies, "
          "dc=research, dc=att, dc=com",
          {"trafficProfile"}, {{"SourceAddress", "204.178.16.*"}}));
  NDQ_RETURN_IF_ERROR(
      add("TPName=csplitOff, ou=trafficProfile, ou=networkPolicies, "
          "dc=research, dc=att, dc=com",
          {"trafficProfile"},
          {{"SourceAddress", "207.140.*.*"}, {"sourcePort", "25"}}));
  NDQ_RETURN_IF_ERROR(
      add("PVPName=1998weekend, ou=policyValidityPeriod, "
          "ou=networkPolicies, dc=research, dc=att, dc=com",
          {"policyValidityPeriod"},
          {{"PVStartTime", "19980101060000"},
           {"PVEndTime", "19981231180000"},
           {"PVDayOfWeek", "6"},
           {"PVDayOfWeek", "7"}}));
  NDQ_RETURN_IF_ERROR(
      add("PVPName=1998thanksgiving, ou=policyValidityPeriod, "
          "ou=networkPolicies, dc=research, dc=att, dc=com",
          {"policyValidityPeriod"},
          {{"PVStartTime", "19981126000000"},
           {"PVEndTime", "19981126235959"}}));
  NDQ_RETURN_IF_ERROR(
      add("DSActionName=denyAll, ou=SLADSAction, ou=networkPolicies, "
          "dc=research, dc=att, dc=com",
          {"SLADSAction"},
          {{"DSPermission", "Deny"},
           {"DSInProfilePeakRate", "20"},
           {"DSDropPriority", "2"}}));
  return inst;
}

DirectoryInstance PaperInstance() {
  Result<DirectoryInstance> inst = TryPaperInstance();
  if (!inst.ok()) DieOnFixtureFailure("PaperInstance", inst.status());
  return inst.TakeValue();
}

}  // namespace gen
}  // namespace ndq
