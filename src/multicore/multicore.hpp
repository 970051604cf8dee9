/**
 * @file
 * Former home of the co-run driver. Simulator runs any core count and
 * kCoreAddressStride lives beside it in core/simulator.hpp; this header
 * keeps the old spelling for perfbench/src/common.cpp, its last user,
 * and goes away with the perfbench change that deletes `handDriven`
 * (see ROADMAP.md).
 */
#ifndef SIPRE_MULTICORE_MULTICORE_HPP
#define SIPRE_MULTICORE_MULTICORE_HPP

#include "core/simulator.hpp"

namespace sipre
{

using MultiCoreSimulator = Simulator;

} // namespace sipre

#endif // SIPRE_MULTICORE_MULTICORE_HPP
