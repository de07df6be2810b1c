#include "analysis/coverage.h"

#include <cctype>
#include <set>

#include "util/bytes.h"

namespace ting::analysis {

namespace {

// Consumer access-network markers (US + European extension).
const char* kResidentialMarkers[] = {
    "comcast", "spectrum", "sbcglobal", "frontier",  "verizon", "fios",
    "rcn",     "hsd",      "dsl",       "cable",     "dip",     "dyn",
    "pool",    "cust",     "client",    "broadband", "res.",    "kabel",
    "wanadoo", "telefonica", "bredband", "ziggo",    "t-ipconnect",
    "plus.com",
};

// Hosting providers the paper tallies (plus Digital Ocean).
const char* kDatacenterMarkers[] = {
    "linode", "amazonaws", "ovh",      "cloudatcost",
    "your-server", "leaseweb", "digitalocean", "hetzner", "server-",
};

/// Count groups of digits (or >=4-char hex runs) in the leading label —
/// residential names embed the host address.
int numeric_groups(const std::string& name) {
  const std::string label = split(name, '.').front();
  int groups = 0;
  std::size_t i = 0;
  while (i < label.size()) {
    if (std::isdigit(static_cast<unsigned char>(label[i]))) {
      ++groups;
      while (i < label.size() &&
             std::isxdigit(static_cast<unsigned char>(label[i])))
        ++i;
    } else if (std::isxdigit(static_cast<unsigned char>(label[i])) &&
               label.size() >= 8) {
      // Hex-coded addresses ("p5483A1B2...") count once if long enough.
      std::size_t run = 0;
      while (i + run < label.size() &&
             std::isxdigit(static_cast<unsigned char>(label[i + run])))
        ++run;
      if (run >= 8) ++groups;
      i += run == 0 ? 1 : run;
    } else {
      ++i;
    }
  }
  return groups;
}

bool contains_marker(const std::string& name, const char* const* markers,
                     std::size_t count) {
  const std::string lower = to_lower(name);
  for (std::size_t i = 0; i < count; ++i)
    if (lower.find(markers[i]) != std::string::npos) return true;
  return false;
}

}  // namespace

bool is_datacenter_rdns(const std::string& rdns) {
  if (rdns.empty()) return false;
  return contains_marker(rdns, kDatacenterMarkers,
                         std::size(kDatacenterMarkers));
}

bool is_residential_rdns(const std::string& rdns) {
  if (rdns.empty()) return false;
  if (is_datacenter_rdns(rdns)) return false;
  // Address-derived numbers in the label + a consumer-ISP suffix.
  return numeric_groups(rdns) >= 1 &&
         contains_marker(rdns, kResidentialMarkers,
                         std::size(kResidentialMarkers));
}

CoverageStats coverage_stats(const dir::Consensus& consensus) {
  CoverageStats stats;
  std::set<std::uint32_t> s24, s16;
  std::set<std::string> countries;
  for (const auto& r : consensus.relays()) {
    ++stats.total_relays;
    s24.insert(r.address.slash24());
    s16.insert(r.address.slash16());
    if (!r.country_code.empty()) countries.insert(r.country_code);
    if (r.reverse_dns.empty()) continue;
    ++stats.with_rdns;
    if (is_residential_rdns(r.reverse_dns)) {
      ++stats.residential;
    } else if (is_datacenter_rdns(r.reverse_dns)) {
      ++stats.datacenter_named;
    } else {
      ++stats.unclassified_named;
    }
  }
  stats.unique_slash24 = s24.size();
  stats.unique_slash16 = s16.size();
  stats.countries = countries.size();
  return stats;
}

}  // namespace ting::analysis
