#pragma once

// Internal: factory for the communicator's shared Group state, whose
// definition is private to communicator.cpp. Used by the Runtime to create
// the world group with the run's combining-tree arity.

#include <memory>

namespace insitu::comm::detail {

class Group;

std::shared_ptr<Group> make_group(int size, int arity);

}  // namespace insitu::comm::detail
