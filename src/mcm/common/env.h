// Environment-variable overrides for benchmark scale knobs.
//
// Every benchmark harness reads its dataset size / query count through these
// helpers so a user can scale an experiment up to the paper's exact
// parameters (e.g. MCM_N=1000000 for Figure 5) or down for a quick smoke run,
// without recompiling.

#ifndef MCM_COMMON_ENV_H_
#define MCM_COMMON_ENV_H_

#include <cstdint>
#include <string>

namespace mcm {

/// Returns the integer value of environment variable `name`, or
/// `default_value` when unset or unparsable.
int64_t GetEnvInt(const std::string& name, int64_t default_value);

/// Returns the double value of environment variable `name`, or
/// `default_value` when unset or unparsable.
double GetEnvDouble(const std::string& name, double default_value);

/// Returns the string value of environment variable `name`, or
/// `default_value` when unset or empty.
std::string GetEnvString(const std::string& name,
                         const std::string& default_value);

}  // namespace mcm

#endif  // MCM_COMMON_ENV_H_
