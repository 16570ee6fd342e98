#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

namespace hostbench {

namespace obs = insitu::obs;

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

ProcUsage ProcUsage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  ProcUsage u;
  u.user_s = secs(ru.ru_utime);
  u.sys_s = secs(ru.ru_stime);
  u.minflt = static_cast<double>(ru.ru_minflt);
  u.nvcsw = static_cast<double>(ru.ru_nvcsw);
  u.nivcsw = static_cast<double>(ru.ru_nivcsw);
  return u;
}

ProcUsage ProcUsage::since(const ProcUsage& start) const {
  ProcUsage d;
  d.user_s = user_s - start.user_s;
  d.sys_s = sys_s - start.sys_s;
  d.minflt = minflt - start.minflt;
  d.nvcsw = nvcsw - start.nvcsw;
  d.nivcsw = nivcsw - start.nivcsw;
  return d;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return values[index];
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

Span::Span(Track* track, const char* name, obs::Category category)
    : track_(track) {
  if (track_ == nullptr) return;
  event_.name = name;
  event_.category = category;
  event_.depth = track_->depth++;
  event_.virt_begin_s = now_s();
}

Span::~Span() {
  if (track_ == nullptr) return;
  --track_->depth;
  event_.virt_dur_s = now_s() - event_.virt_begin_s;
  event_.wall_begin_ns = std::llround(event_.virt_begin_s * 1e9);
  event_.wall_dur_ns = std::llround(event_.virt_dur_s * 1e9);
  event_.rank = track_->id;
  track_->events.push_back(std::move(event_));
}

void record_interval(Track& track, const char* name, obs::Category category,
                     double begin_s, double end_s) {
  obs::TraceEvent event;
  event.name = name;
  event.category = category;
  event.rank = track.id;
  event.depth = track.depth;
  event.virt_begin_s = begin_s;
  event.virt_dur_s = end_s - begin_s;
  event.wall_begin_ns = std::llround(begin_s * 1e9);
  event.wall_dur_ns = std::llround(event.virt_dur_s * 1e9);
  track.events.push_back(std::move(event));
}

void TraceSink::add(const std::string& label, std::vector<Track>& tracks) {
  obs::TraceRun run;
  run.label = label;
  for (Track& track : tracks) {
    run.log.nranks = std::max(run.log.nranks, track.id + 1);
    run.log.events.insert(run.log.events.end(),
                          std::make_move_iterator(track.events.begin()),
                          std::make_move_iterator(track.events.end()));
    track.events.clear();
  }
  runs_.push_back(std::move(run));
}

Timed::Timed(bool on, Track* track, const char* name, obs::Category category,
             CallTimes& times, bool thread_cpu)
    : on_(on), times_(&times), thread_cpu_(thread_cpu) {
  if (!on_) return;
  span_.emplace(track, name, category);
  cpu0_ = thread_cpu_ ? thread_cpu_s() : 0.0;
  t0_ = now_s();
}

Timed::~Timed() {
  if (!on_) return;
  times_->elapsed_s += now_s() - t0_;
  if (thread_cpu_) times_->cpu_s += thread_cpu_s() - cpu0_;
  ++times_->calls;
}

insitu::StatusOr<bool> TimedAnalysis::execute(
    insitu::core::DataAdaptor& data) {
  Timed timed(true, track_, span_, category_, *times_, thread_cpu_);
  return inner_->execute(data);
}

double sum_metric(const obs::MetricsSnapshot& snapshot, std::string_view name,
                  bool histogram_sum) {
  double total = 0.0;
  std::string bare;
  obs::Labels labels;
  for (const obs::MetricSample& sample : snapshot) {
    if (!obs::parse_metric_key(sample.key, bare, labels) || bare != name) {
      continue;
    }
    total += histogram_sum ? sample.sum : sample.value;
  }
  return total;
}

double sum_metric_labeled(const obs::MetricsSnapshot& snapshot,
                          std::string_view name, std::string_view label,
                          std::string_view value) {
  double total = 0.0;
  std::string bare;
  obs::Labels labels;
  for (const obs::MetricSample& sample : snapshot) {
    if (!obs::parse_metric_key(sample.key, bare, labels) || bare != name) {
      continue;
    }
    for (const auto& [k, v] : labels) {
      if (k == label && v == value) total += sample.value;
    }
  }
  return total;
}

Sample median_of(const std::vector<Sample>& samples) {
  std::map<std::string, std::vector<double>> columns;
  for (const Sample& sample : samples) {
    for (const auto& [name, value] : sample) columns[name].push_back(value);
  }
  Sample out;
  for (auto& [name, values] : columns) out[name] = median(std::move(values));
  return out;
}

}  // namespace hostbench
