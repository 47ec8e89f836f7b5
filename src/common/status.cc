#include "common/status.h"

namespace scoop {
namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kInvalidArgument:
      return "InvalidArgument";
    case Status::Code::kNotFound:
      return "NotFound";
    case Status::Code::kOutOfRange:
      return "OutOfRange";
    case Status::Code::kResourceExhausted:
      return "ResourceExhausted";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace scoop
