// Best-effort (BE) job models.
//
// The paper uses seven BE workloads (Table 1): four synthetic stressors that
// pressure one resource (CPU-stress, stream-llc, stream-dram, iperf) and
// three real mixed workloads (Wordcount, ImageClassify on CycleGAN, LSTM on
// TensorFlow). §2 additionally splits the stream benchmarks into big/small
// intensity levels. Each job is modelled by (a) the pressure it exerts on
// each shared resource when running full speed, (b) the resources it needs
// to run full speed, and (c) its solo completion time, which normalizes BE
// throughput.

#ifndef RHYTHM_SRC_BEMODEL_BE_JOB_SPEC_H_
#define RHYTHM_SRC_BEMODEL_BE_JOB_SPEC_H_

#include <string>
#include <vector>

#include "src/resources/machine_spec.h"

namespace rhythm {

enum class BeJobKind {
  kCpuStress,
  kStreamLlcBig,
  kStreamLlcSmall,
  kStreamDramBig,
  kStreamDramSmall,
  kIperf,
  kWordcount,
  kImageClassify,
  kLstm,
};

// Shared-resource dimensions a BE can pressure / an LC component can be
// sensitive to. "Frequency" captures DVFS-induced slowdown.
struct ResourceVector {
  double cpu = 0.0;   // core/SMT and scheduler pressure within the socket.
  double llc = 0.0;   // last-level-cache thrashing intensity.
  double dram = 0.0;  // memory-bandwidth pressure.
  double net = 0.0;   // NIC pressure.
  double freq = 0.0;  // sensitivity to frequency reduction (LC side only).
};

struct BeJobSpec {
  BeJobKind kind;
  std::string name;
  // Pressure exerted per running instance at full allocation, each in [0,1].
  ResourceVector pressure;
  // Resources one instance wants in order to run at full speed.
  double cores_demand = 1.0;
  int llc_ways_demand = 1;
  double membw_demand_gbs = 1.0;
  double net_demand_gbps = 0.0;
  double memory_gb = 2.0;
  // Wall-clock seconds one job takes when fully resourced.
  double solo_duration_s = 60.0;
  // Fraction of its allocated core time the job actually burns (CPU-bound
  // jobs ~1.0; IO-heavy jobs less).
  double cpu_intensity = 1.0;
  bool mixed = false;  // true for the three "normal" application BEs.
};

// Catalog lookups.
const BeJobSpec& GetBeJobSpec(BeJobKind kind);
const std::vector<BeJobKind>& AllBeJobKinds();
// The six BEs used in the evaluation grids (Figures 9-15): stream-llc,
// stream-dram (big variants), CPU-stress, LSTM, imageClassify, wordcount.
const std::vector<BeJobKind>& EvaluationBeJobKinds();
const char* BeJobKindName(BeJobKind kind);
// Name lookup (src/common/names.h normalization: case and punctuation
// ignored); false when no BE job has that name.
bool ParseBeJobKindName(const std::string& name, BeJobKind* out);

// Builds a synthetic BE spec from a raw pressure vector (each axis clamped
// to [0, 1]). The adversarial search (src/verify/adversary) decodes genome
// genes into one of these so it can explore pressure mixes the Table-1
// catalog never exercises. Deterministic: equal vectors yield equal specs.
// Resource demands scale with the pressure on each axis so an instance that
// claims to thrash a resource also asks the machine for it.
BeJobSpec MakeAdversarialBeSpec(const ResourceVector& pressure);

// Number of instances of this job that fit on an idle machine, and the
// corresponding solo completion rate (jobs/hour); used to normalize the
// BE-throughput metric (paper §5.1, EMU definition).
int SoloInstanceCount(const BeJobSpec& job, const MachineSpec& machine);
double SoloRatePerHour(const BeJobSpec& job, const MachineSpec& machine);

}  // namespace rhythm

#endif  // RHYTHM_SRC_BEMODEL_BE_JOB_SPEC_H_
