#include "gpu/isa.hh"

namespace vsgpu
{

const char *
opClassName(OpClass op)
{
    switch (op) {
      case OpClass::IntAlu:     return "int";
      case OpClass::FpAlu:      return "fp";
      case OpClass::Sfu:        return "sfu";
      case OpClass::Load:       return "load";
      case OpClass::Store:      return "store";
      case OpClass::SharedMem:  return "smem";
      case OpClass::Atomic:     return "atomic";
      case OpClass::Sync:       return "sync";
      case OpClass::NumClasses: break;
    }
    return "?";
}

} // namespace vsgpu
