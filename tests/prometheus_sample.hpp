// Reads one sample back out of a Prometheus text rendering
// (obs::metrics_registry::render_prometheus()).
#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace appeal::testing {

/// The value of the `family{labels}` sample in a Prometheus rendering
/// (labels exactly as rendered); a missing sample fails the test.
inline double prometheus_sample(const std::string& text,
                                const std::string& family,
                                const std::string& labels) {
  const std::string head = family + "{" + labels + "} ";
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.compare(0, head.size(), head) == 0) {
      return std::stod(line.substr(head.size()));
    }
  }
  ADD_FAILURE() << "no sample " << head;
  return 0.0;
}

}  // namespace appeal::testing
