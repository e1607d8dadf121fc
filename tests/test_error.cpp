// expects()/ensure(): the exception type per check, and the message
// format "<msg> at <file>:<line> (<function>)" for a literal message and
// for a built std::string one.
#include <gtest/gtest.h>

#include <source_location>
#include <string>

#include "hvc/common/error.hpp"

namespace hvc {
namespace {

/// The " at file:line (function)" suffix of a check made `lines_below`
/// lines under `here`, in the same function.
[[nodiscard]] std::string suffix_at(const std::source_location& here,
                                    unsigned lines_below) {
  return std::string(" at ") + here.file_name() + ":" +
         std::to_string(here.line() + lines_below) + " (" +
         here.function_name() + ")";
}

TEST(ErrorChecks, PassingChecksDoNotThrow) {
  EXPECT_NO_THROW(expects(true, "never shown"));
  EXPECT_NO_THROW(ensure(true, "never shown"));
  EXPECT_NO_THROW(expects(true, std::string("never shown")));
  EXPECT_NO_THROW(ensure(true, std::string("never shown")));
}

TEST(ErrorChecks, ExpectsWithALiteralThrowsPreconditionErrorWithLocation) {
  std::string what;
  const std::source_location here = std::source_location::current();
  try { expects(false, "literal precondition"); } catch (const PreconditionError& e) { what = e.what(); }
  EXPECT_EQ(what, "literal precondition" + suffix_at(here, 1));
}

TEST(ErrorChecks, EnsureWithALiteralThrowsInvariantErrorWithLocation) {
  std::string what;
  const std::source_location here = std::source_location::current();
  try { ensure(false, "literal invariant"); } catch (const InvariantError& e) { what = e.what(); }
  EXPECT_EQ(what, "literal invariant" + suffix_at(here, 1));
}

TEST(ErrorChecks, BuiltStringMessagesKeepTheSameFormat) {
  const std::string name = "gsm_c";
  std::string expects_what, ensure_what;
  const std::source_location here = std::source_location::current();
  try { expects(false, "bad workload: " + name); } catch (const PreconditionError& e) { expects_what = e.what(); }
  try { ensure(false, "self-check failed: " + name); } catch (const InvariantError& e) { ensure_what = e.what(); }
  EXPECT_EQ(expects_what, "bad workload: gsm_c" + suffix_at(here, 1));
  EXPECT_EQ(ensure_what, "self-check failed: gsm_c" + suffix_at(here, 2));
}

}  // namespace
}  // namespace hvc
