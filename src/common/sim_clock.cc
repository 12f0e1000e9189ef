#include "common/sim_clock.h"

#include <cstdio>

namespace r3 {

std::string FormatDuration(int64_t us) {
  if (us < 0) return "-" + FormatDuration(-us);
  int64_t total_secs = us / 1000000;
  if (total_secs == 0) return "<1s";
  int64_t days = total_secs / 86400;
  int64_t hours = (total_secs % 86400) / 3600;
  int64_t mins = (total_secs % 3600) / 60;
  int64_t secs = total_secs % 60;

  char buf[64];
  if (days > 0) {
    std::snprintf(buf, sizeof(buf), "%lldd %lldh %lldm",
                  static_cast<long long>(days), static_cast<long long>(hours),
                  static_cast<long long>(mins));
  } else if (hours > 0) {
    std::snprintf(buf, sizeof(buf), "%lldh %lldm %llds",
                  static_cast<long long>(hours), static_cast<long long>(mins),
                  static_cast<long long>(secs));
  } else if (mins > 0) {
    std::snprintf(buf, sizeof(buf), "%lldm %llds",
                  static_cast<long long>(mins), static_cast<long long>(secs));
  } else {
    std::snprintf(buf, sizeof(buf), "%llds", static_cast<long long>(secs));
  }
  return buf;
}

}  // namespace r3
