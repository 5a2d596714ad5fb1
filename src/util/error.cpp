#include "util/error.hpp"

namespace plc::util {

void throw_error(std::string_view message) {
  throw Error(std::string(message));
}

void check_arg(bool condition, std::string_view arg_name,
               std::string_view message) {
  if (!condition) {
    std::string what = "invalid argument '";
    what += arg_name;
    what += "': ";
    what += message;
    throw Error(what);
  }
}

}  // namespace plc::util
