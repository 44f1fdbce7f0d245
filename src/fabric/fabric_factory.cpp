#include "fabric/fabric_factory.h"

#include "common/check.h"
#include "fabric/mesh_fabric.h"
#include "fabric/ocs_fabric.h"
#include "fabric/rotor_fabric.h"

namespace cosched {

std::unique_ptr<Fabric> make_fabric(Simulator& sim, const HybridTopology& topo,
                                    const FabricSpec& spec) {
  switch (spec.kind) {
    case FabricKind::kOcs:
      return std::make_unique<OcsFabric>(sim, topo, spec.planes);
    case FabricKind::kRotor:
      return std::make_unique<RotorFabric>(sim, topo, spec.rotor_period);
    case FabricKind::kMesh:
      return std::make_unique<MeshFabric>(sim, topo);
  }
  COSCHED_CHECK_MSG(false, "unhandled fabric kind");
  return nullptr;
}

}  // namespace cosched
