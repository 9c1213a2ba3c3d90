// Figure 2 — Heterogeneous on-device resources, and the cost of on-device
// training versus inference.
//
// (a) Distribution of device RAM capacity across a sampled fleet.
// (b) Inference latency spread: mobile SoCs vs IoT boards (CDF percentiles).
// (c) Peak memory footprint and latency for three vision models — disk size,
//     inference, training — on Jetson Nano and Raspberry Pi. The paper's
//     observation to reproduce: training costs >10x inference memory/time.
#include <algorithm>
#include <cstdio>

#include "common/table.h"
#include "core/model_zoo.h"
#include "nn/init.h"
#include "sim/cost_model.h"
#include "sim/device.h"

int main() {
  using namespace nebula;

  // ---- (a) RAM histogram --------------------------------------------------------
  ProfileSampler sampler(2024);
  auto fleet = sampler.sample_fleet(400, 0.6);
  std::printf("Figure 2(a): on-device RAM capacity histogram (400 devices)\n");
  Table ram({"RAM (GB)", "Devices", "Fraction"});
  const char* buckets[] = {"<2", "2-4", "4-6", "6-8", "8-10", "10-12", ">=12"};
  std::int64_t counts[7] = {0};
  for (const auto& p : fleet) {
    const double gb = p.mem_capacity_mb / 1024.0;
    int b = gb < 2 ? 0 : gb < 4 ? 1 : gb < 6 ? 2 : gb < 8 ? 3
            : gb < 10 ? 4 : gb < 12 ? 5 : 6;
    ++counts[b];
  }
  for (int b = 0; b < 7; ++b) {
    ram.add_row({buckets[b], std::to_string(counts[b]),
                 Table::num(counts[b] / 400.0, 3)});
  }
  ram.print();

  // ---- (b) inference latency CDF percentiles ------------------------------------
  std::printf("\nFigure 2(b): MobileNetV3-like inference latency percentiles "
              "(ms per batch of 32)\n");
  init::reseed(31);
  auto probe_model = make_plain(TaskModel::kResNet18, {3, 8, 8}, 10, 0.75);
  std::vector<double> mobile_lat, iot_lat;
  RuntimeMonitor idle(0);
  for (const auto& p : fleet) {
    const double l =
        CostModel::inference_latency_ms(*probe_model, {3, 8, 8}, 32, p, idle);
    (p.cls == DeviceClass::kMobileSoc ? mobile_lat : iot_lat).push_back(l);
  }
  std::sort(mobile_lat.begin(), mobile_lat.end());
  std::sort(iot_lat.begin(), iot_lat.end());
  auto pct = [](const std::vector<double>& v, double q) {
    return v[static_cast<std::size_t>(q * (v.size() - 1))];
  };
  Table cdf({"Percentile", "Mobile SoCs (ms)", "IoT boards (ms)"});
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    cdf.add_row({Table::num(q, 2), Table::num(pct(mobile_lat, q), 3),
                 Table::num(pct(iot_lat, q), 3)});
  }
  cdf.print();
  std::printf("IoT boards should sit well to the right of mobile SoCs, "
              "matching the paper's CDF separation.\n");

  // ---- (c) disk / inference / training costs ------------------------------------
  std::printf("\nFigure 2(c): per-model resource costs (batch 16)\n");
  struct NamedModel {
    const char* name;
    LayerPtr model;
    std::vector<std::int64_t> shape;
  };
  init::reseed(32);
  std::vector<NamedModel> models;
  models.push_back({"VGG16-like",
                    make_plain(TaskModel::kVgg16, {3, 8, 8}, 100, 1.0),
                    {3, 8, 8}});
  models.push_back({"ResNet50-like",
                    make_plain(TaskModel::kResNet34, {1, 16, 8}, 35, 1.0),
                    {1, 16, 8}});
  models.push_back({"EfficientNetV2S-like",
                    make_plain(TaskModel::kResNet18, {3, 8, 8}, 10, 1.0),
                    {3, 8, 8}});
  auto nano = DeviceProfile::jetson_nano();
  auto pi = DeviceProfile::raspberry_pi();
  Table costs({"Model", "Disk (KB)", "Inference mem (KB)", "Training mem (KB)",
               "Train/Inf mem", "Nano inf (ms)", "Nano train (ms)",
               "Pi inf (ms)", "Pi train (ms)"});
  for (auto& nm : models) {
    const double disk = CostModel::model_size_mb(*nm.model) * 1024.0;
    const double inf_mem =
        CostModel::inference_peak_mem_mb(*nm.model, nm.shape, 16) * 1024.0;
    const double train_mem =
        CostModel::training_peak_mem_mb(*nm.model, nm.shape, 16) * 1024.0;
    costs.add_row(
        {nm.name, Table::num(disk, 1), Table::num(inf_mem, 1),
         Table::num(train_mem, 1), Table::num(train_mem / inf_mem, 2) + "x",
         Table::num(CostModel::inference_latency_ms(*nm.model, nm.shape, 16,
                                                    nano, idle),
                    3),
         Table::num(CostModel::training_latency_ms(*nm.model, nm.shape, 16,
                                                   nano, idle),
                    3),
         Table::num(CostModel::inference_latency_ms(*nm.model, nm.shape, 16,
                                                    pi, idle),
                    3),
         Table::num(CostModel::training_latency_ms(*nm.model, nm.shape, 16,
                                                   pi, idle),
                    3)});
  }
  costs.print();
  std::printf("\nPaper reference: training can cost more than 10x the peak "
              "memory and execution time of inference (Figure 2c).\n");
  return 0;
}
