// EnergyAwareHdlts is header-only over Hdlts (the weighted selection rule
// lives in hdlts.cpp, next to the min-EFT scan it replaces); this
// translation unit just anchors the class for the module's object list.
#include "hdlts/core/energy_aware.hpp"

#include <type_traits>

namespace hdlts::core {

static_assert(!std::is_abstract_v<EnergyAwareHdlts>,
              "EnergyAwareHdlts must be constructible behind the registry");

}  // namespace hdlts::core
