//===- vmcore/GangSchedule.h - Legacy gang scheduling token -----*- C++ -*-===//
///
/// \file
/// The `schedule static|dynamic` token older spec files declare. It
/// selects nothing: every gang with threads > 1 runs GangReplayer's one
/// pooled scheduler (cost-planned tiles, work stealing, parallel finish
/// tail), and serial gangs stay serial. The token still parses so those
/// files keep loading, and the type stays declared because external
/// drivers assign SweepSpec::Schedule.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_VMCORE_GANGSCHEDULE_H
#define VMIB_VMCORE_GANGSCHEDULE_H

#include <cstdint>
#include <string>

namespace vmib {

enum class GangSchedule : uint8_t {
  Static,
  Dynamic,
};

/// Parses a spec-file schedule token. \returns false on anything but
/// "static" or "dynamic".
inline bool gangScheduleFromId(const std::string &Id, GangSchedule &Out) {
  if (Id == "static")
    Out = GangSchedule::Static;
  else if (Id == "dynamic")
    Out = GangSchedule::Dynamic;
  else
    return false;
  return true;
}

} // namespace vmib

#endif // VMIB_VMCORE_GANGSCHEDULE_H
