#include "perfbench/common.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/json.h"

namespace perfbench {

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) {
    return 0.0;
  }
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(file);
  return kb / 1024.0;
}

bool FileExists(const std::string& path) {
  struct stat info {};
  return !path.empty() && ::stat(path.c_str(), &info) == 0;
}

bool RunRecord::ok() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& check) { return check.failure.empty(); });
}

std::string RunRecord::Json() const {
  rhythm::JsonWriter w;
  w.BeginObject().Key("ok").Bool(ok()).Key("attempted").UInt(attempted)
      .Key("failed").UInt(failed).Key("checks").BeginArray();
  for (const Check& check : checks) {
    w.BeginObject().Key("name").String(check.name)
        .Key("failure").String(check.failure).EndObject();
  }
  w.EndArray();
  const auto write_group = [&w](const char* key, const std::map<std::string, double>& group) {
    w.Key(key).BeginObject();
    for (const auto& [name, value] : group) {
      w.Key(name).Number(value);
    }
    w.EndObject();
  };
  write_group("e2e", e2e);
  write_group("layers", layers);
  w.EndObject();
  return std::move(w).str();
}

}  // namespace perfbench
