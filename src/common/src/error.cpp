#include "hvc/common/error.hpp"

namespace hvc::detail {

namespace {
std::string describe(std::string_view msg, const std::source_location& loc) {
  std::string out(msg);
  out += " at ";
  out += loc.file_name();
  out += ':';
  out += std::to_string(loc.line());
  out += " (";
  out += loc.function_name();
  out += ')';
  return out;
}
}  // namespace

void throw_precondition(std::string_view msg,
                        const std::source_location& loc) {
  throw PreconditionError(describe(msg, loc));
}

void throw_invariant(std::string_view msg, const std::source_location& loc) {
  throw InvariantError(describe(msg, loc));
}

}  // namespace hvc::detail
