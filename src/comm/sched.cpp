#include "comm/sched.hpp"

namespace insitu::comm {

const char* to_string(SchedBackend backend) {
  switch (backend) {
    case SchedBackend::kThreads: return "threads";
    case SchedBackend::kMn: return "mn";
  }
  return "?";
}

std::optional<SchedBackend> parse_sched_backend(std::string_view name) {
  if (name == "threads") return SchedBackend::kThreads;
  if (name == "mn") return SchedBackend::kMn;
  return std::nullopt;
}

}  // namespace insitu::comm
