// Coverage analysis (§5.3): how much of the Internet can Ting reach?
// Counts unique /24 prefixes across a consensus and classifies relays as
// residential or datacenter from their reverse-DNS names — an extension of
// Schulman & Spring's classifier (numbers/hex in the label + an access-
// network suffix) to European ISPs, as the paper describes.
#pragma once

#include <string>
#include <vector>

#include "dir/consensus.h"

namespace ting::analysis {

/// Schulman-&-Spring-style residential test on an rDNS name: the leading
/// label embeds the address (dotted octets or hex) and the suffix names a
/// consumer access network (US or European).
bool is_residential_rdns(const std::string& rdns);

/// Does the rDNS name a known hosting provider?
bool is_datacenter_rdns(const std::string& rdns);

struct CoverageStats {
  std::size_t total_relays = 0;
  std::size_t with_rdns = 0;
  std::size_t residential = 0;        ///< classified residential (of named)
  std::size_t datacenter_named = 0;   ///< classified hosting (of named)
  std::size_t unclassified_named = 0;
  std::size_t unique_slash24 = 0;
  std::size_t unique_slash16 = 0;
  std::size_t countries = 0;

  double residential_fraction_of_named() const {
    return with_rdns == 0 ? 0
                          : static_cast<double>(residential) /
                                static_cast<double>(with_rdns);
  }
};

CoverageStats coverage_stats(const dir::Consensus& consensus);

}  // namespace ting::analysis
