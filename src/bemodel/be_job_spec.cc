#include "src/bemodel/be_job_spec.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/names.h"

namespace rhythm {

namespace {

std::vector<BeJobSpec> BuildCatalog() {
  std::vector<BeJobSpec> catalog;

  // CPU-stress: saturates cores from the same socket; little cache or
  // bandwidth footprint. The paper finds it the *least* disruptive stressor
  // because cpuset isolation already separates cores (§2: +113% Master,
  // +22% Slave at worst).
  catalog.push_back(BeJobSpec{
      .kind = BeJobKind::kCpuStress,
      .name = "CPU-stress",
      .pressure = {.cpu = 1.0, .llc = 0.05, .dram = 0.05, .net = 0.0, .freq = 0.0},
      .cores_demand = 4.0,
      .llc_ways_demand = 1,
      .membw_demand_gbs = 1.0,
      .net_demand_gbps = 0.0,
      .memory_gb = 2.0,
      .solo_duration_s = 120.0,
      .cpu_intensity = 1.0,
  });

  // stream-llc (iBench): thrashes the shared L3. "big" saturates the whole
  // LLC; "small" occupies half (§2).
  catalog.push_back(BeJobSpec{
      .kind = BeJobKind::kStreamLlcBig,
      .name = "stream-llc(big)",
      .pressure = {.cpu = 0.15, .llc = 1.0, .dram = 0.35, .net = 0.0, .freq = 0.0},
      .cores_demand = 2.0,
      .llc_ways_demand = 20,
      .membw_demand_gbs = 18.0,
      .net_demand_gbps = 0.0,
      .memory_gb = 4.0,
      .solo_duration_s = 90.0,
      .cpu_intensity = 0.9,
  });
  catalog.push_back(BeJobSpec{
      .kind = BeJobKind::kStreamLlcSmall,
      .name = "stream-llc(small)",
      .pressure = {.cpu = 0.1, .llc = 0.5, .dram = 0.2, .net = 0.0, .freq = 0.0},
      .cores_demand = 2.0,
      .llc_ways_demand = 10,
      .membw_demand_gbs = 9.0,
      .net_demand_gbps = 0.0,
      .memory_gb = 2.0,
      .solo_duration_s = 90.0,
      .cpu_intensity = 0.9,
  });

  // stream-dram (iBench): saturates memory bandwidth.
  catalog.push_back(BeJobSpec{
      .kind = BeJobKind::kStreamDramBig,
      .name = "stream-dram(big)",
      .pressure = {.cpu = 0.15, .llc = 0.25, .dram = 1.0, .net = 0.0, .freq = 0.0},
      .cores_demand = 4.0,
      .llc_ways_demand = 4,
      .membw_demand_gbs = 55.0,
      .net_demand_gbps = 0.0,
      .memory_gb = 8.0,
      .solo_duration_s = 90.0,
      .cpu_intensity = 0.85,
  });
  catalog.push_back(BeJobSpec{
      .kind = BeJobKind::kStreamDramSmall,
      .name = "stream-dram(small)",
      .pressure = {.cpu = 0.1, .llc = 0.15, .dram = 0.5, .net = 0.0, .freq = 0.0},
      .cores_demand = 2.0,
      .llc_ways_demand = 2,
      .membw_demand_gbs = 27.0,
      .net_demand_gbps = 0.0,
      .memory_gb = 4.0,
      .solo_duration_s = 90.0,
      .cpu_intensity = 0.85,
  });

  // iperf: network stress.
  catalog.push_back(BeJobSpec{
      .kind = BeJobKind::kIperf,
      .name = "iperf",
      .pressure = {.cpu = 0.1, .llc = 0.05, .dram = 0.1, .net = 1.0, .freq = 0.0},
      .cores_demand = 1.0,
      .llc_ways_demand = 1,
      .membw_demand_gbs = 2.0,
      .net_demand_gbps = 9.0,
      .memory_gb = 0.5,
      .solo_duration_s = 60.0,
      .cpu_intensity = 0.4,
  });

  // Wordcount (big-data analytics): mixed CPU + heavy IO/memory bandwidth.
  catalog.push_back(BeJobSpec{
      .kind = BeJobKind::kWordcount,
      .name = "wordcount",
      .pressure = {.cpu = 0.7, .llc = 0.60, .dram = 0.90, .net = 0.15, .freq = 0.0},
      .cores_demand = 6.0,
      .llc_ways_demand = 4,
      .membw_demand_gbs = 22.0,
      .net_demand_gbps = 0.6,
      .memory_gb = 8.0,
      .solo_duration_s = 150.0,
      .cpu_intensity = 0.8,
      .mixed = true,
  });

  // ImageClassify (CycleGAN inference): compute heavy with moderate cache
  // and bandwidth pressure.
  catalog.push_back(BeJobSpec{
      .kind = BeJobKind::kImageClassify,
      .name = "imageClassify",
      .pressure = {.cpu = 0.85, .llc = 0.70, .dram = 0.65, .net = 0.05, .freq = 0.0},
      .cores_demand = 8.0,
      .llc_ways_demand = 5,
      .membw_demand_gbs = 16.0,
      .net_demand_gbps = 0.2,
      .memory_gb = 6.0,
      .solo_duration_s = 140.0,
      .cpu_intensity = 0.95,
      .mixed = true,
  });

  // LSTM training on TensorFlow: heavy CPU consumption (paper §5.2.1: >70%
  // CPU utilization) with sustained bandwidth demand.
  catalog.push_back(BeJobSpec{
      .kind = BeJobKind::kLstm,
      .name = "LSTM",
      .pressure = {.cpu = 0.95, .llc = 0.65, .dram = 0.80, .net = 0.05, .freq = 0.0},
      .cores_demand = 10.0,
      .llc_ways_demand = 4,
      .membw_demand_gbs = 14.0,
      .net_demand_gbps = 0.2,
      .memory_gb = 10.0,
      .solo_duration_s = 180.0,
      .cpu_intensity = 0.95,
      .mixed = true,
  });

  return catalog;
}

const std::vector<BeJobSpec>& Catalog() {
  static const std::vector<BeJobSpec>* catalog = new std::vector<BeJobSpec>(BuildCatalog());
  return *catalog;
}

}  // namespace

const BeJobSpec& GetBeJobSpec(BeJobKind kind) {
  for (const BeJobSpec& spec : Catalog()) {
    if (spec.kind == kind) {
      return spec;
    }
  }
  RHYTHM_CHECK(false);
  return Catalog().front();
}

const std::vector<BeJobKind>& AllBeJobKinds() {
  static const std::vector<BeJobKind>* kinds = new std::vector<BeJobKind>{
      BeJobKind::kCpuStress,      BeJobKind::kStreamLlcBig,  BeJobKind::kStreamLlcSmall,
      BeJobKind::kStreamDramBig,  BeJobKind::kStreamDramSmall, BeJobKind::kIperf,
      BeJobKind::kWordcount,      BeJobKind::kImageClassify, BeJobKind::kLstm,
  };
  return *kinds;
}

const std::vector<BeJobKind>& EvaluationBeJobKinds() {
  static const std::vector<BeJobKind>* kinds = new std::vector<BeJobKind>{
      BeJobKind::kStreamLlcBig, BeJobKind::kStreamDramBig, BeJobKind::kCpuStress,
      BeJobKind::kLstm,         BeJobKind::kImageClassify, BeJobKind::kWordcount,
  };
  return *kinds;
}

const char* BeJobKindName(BeJobKind kind) { return GetBeJobSpec(kind).name.c_str(); }

bool ParseBeJobKindName(const std::string& name, BeJobKind* out) {
  return ParseKindName(name, AllBeJobKinds(), BeJobKindName, out);
}

BeJobSpec MakeAdversarialBeSpec(const ResourceVector& pressure) {
  const auto clamp01 = [](double v) { return std::min(1.0, std::max(0.0, v)); };
  const double cpu = clamp01(pressure.cpu);
  const double llc = clamp01(pressure.llc);
  const double dram = clamp01(pressure.dram);
  const double net = clamp01(pressure.net);
  BeJobSpec spec;
  // The kind tags the instance records; everything behavioural reads the
  // spec itself (BeRuntime::spec()), so any catalog kind works as the tag.
  spec.kind = BeJobKind::kCpuStress;
  spec.name = "adversarial";
  spec.pressure = {.cpu = cpu, .llc = llc, .dram = dram, .net = net, .freq = 0.0};
  // Demands interpolate across the catalog's ranges so the decoded job both
  // exerts the pressure and competes for the matching allocation.
  spec.cores_demand = 1.0 + 9.0 * cpu;
  spec.llc_ways_demand = 1 + static_cast<int>(19.0 * llc);
  spec.membw_demand_gbs = 1.0 + 54.0 * dram;
  spec.net_demand_gbps = 9.0 * net;
  spec.memory_gb = 2.0 + 8.0 * dram;
  spec.solo_duration_s = 120.0;
  spec.cpu_intensity = 0.4 + 0.6 * cpu;
  spec.mixed = false;
  return spec;
}

int SoloInstanceCount(const BeJobSpec& job, const MachineSpec& machine) {
  const double by_cores = machine.total_cores / job.cores_demand;
  const double by_membw = machine.dram_bw_gbs / std::max(job.membw_demand_gbs, 0.1);
  const double by_memory = machine.dram_gb / std::max(job.memory_gb, 0.1);
  const double by_net = job.net_demand_gbps > 0.0
                            ? machine.nic_gbps / job.net_demand_gbps
                            : by_cores;
  const double fit = std::min({by_cores, by_membw, by_memory, by_net});
  return std::max(1, static_cast<int>(fit));
}

double SoloRatePerHour(const BeJobSpec& job, const MachineSpec& machine) {
  return SoloInstanceCount(job, machine) * 3600.0 / job.solo_duration_s;
}

}  // namespace rhythm
