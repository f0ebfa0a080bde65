// Error-handling helpers shared by all dds modules.
//
// The library reports contract violations (bad arguments, broken invariants)
// by throwing exceptions derived from std::logic_error / std::runtime_error.
// Simulation code never aborts the process; callers decide how to recover.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace dds {

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant is found broken (a library bug or a
/// corrupted state handed back to the library).
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when an external resource (trace file, CSV) cannot be used.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

[[noreturn]] inline void throwPrecondition(const char* expr, const char* file,
                                           int line, const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw PreconditionError(os.str());
}

[[noreturn]] inline void throwInvariant(const char* expr, const char* file,
                                        int line, const std::string& msg) {
  std::ostringstream os;
  os << "invariant violated: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw InvariantError(os.str());
}

}  // namespace detail

/// One rule of a config struct's appendErrors: records `message` when
/// `ok` is false (never throws).
inline void require(std::vector<std::string>& errors, bool ok,
                    const char* message) {
  if (!ok) errors.emplace_back(message);
}

/// Throws PreconditionError "invalid <what> (N errors): a; b" listing every
/// message in `errors`; no-op when `errors` is empty.
inline void throwIfAny(const std::vector<std::string>& errors,
                       const char* what) {
  if (errors.empty()) return;
  std::ostringstream os;
  os << "invalid " << what << " (" << errors.size() << " error"
     << (errors.size() == 1 ? "" : "s") << "): ";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    os << (i ? "; " : "") << errors[i];
  }
  throw PreconditionError(os.str());
}

/// The validating constructors' check: throws PreconditionError listing
/// every error `config.appendErrors` reports — the same messages
/// ExperimentConfig::validationErrors gives for the same values.
template <class Config>
void requireValid(const Config& config, const char* what) {
  std::vector<std::string> errors;
  config.appendErrors(errors);
  throwIfAny(errors, what);
}

}  // namespace dds

/// Validate a documented precondition; throws dds::PreconditionError.
#define DDS_REQUIRE(expr, msg)                                          \
  do {                                                                  \
    if (!(expr))                                                        \
      ::dds::detail::throwPrecondition(#expr, __FILE__, __LINE__, msg); \
  } while (false)

/// Validate an internal invariant; throws dds::InvariantError.
#define DDS_ENSURE(expr, msg)                                        \
  do {                                                               \
    if (!(expr))                                                     \
      ::dds::detail::throwInvariant(#expr, __FILE__, __LINE__, msg); \
  } while (false)
