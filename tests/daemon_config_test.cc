// Tests of the lachesisd configuration parser.
#include "osctl/daemon_config.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "tsdb/tsdb.h"

namespace lachesis::osctl {
namespace {

constexpr const char* kGoodConfig = R"(
# lachesisd example
[lachesis]
period_ms   = 500
policy      = fcfs
translator  = cpu.shares
metrics_file = /tmp/graphite.log
provides     = queue_size tuples_in head_tuple_age_ns
cgroup_root  = /sys/fs/cgroup/cpu/lachesis
proc_root    = /proc
name         = storm-prod

[query tolls]
pid = 4242
operator spout = exec-spout storm.tolls.spout ingress
operator parse = exec-parse storm.tolls.parse
operator sink  = exec-sink  storm.tolls.sink  egress
edge = spout parse
edge = parse sink
)";

TEST(DaemonConfigTest, ParsesFullConfig) {
  const DaemonConfig config = ParseDaemonConfig(kGoodConfig);
  EXPECT_EQ(config.period_ms, 500);
  EXPECT_EQ(config.policy, "fcfs");
  EXPECT_EQ(config.translator, "cpu.shares");
  EXPECT_EQ(config.cgroup_root, "/sys/fs/cgroup/cpu/lachesis");
  EXPECT_EQ(config.spe.name, "storm-prod");
  EXPECT_EQ(config.spe.metrics_file, "/tmp/graphite.log");
  ASSERT_EQ(config.spe.queries.size(), 1u);
  const NativeQueryConfig& query = config.spe.queries[0];
  EXPECT_EQ(query.name, "tolls");
  EXPECT_EQ(query.pid, 4242);
  ASSERT_EQ(query.operators.size(), 3u);
  EXPECT_EQ(query.operators[0].name, "spout");
  EXPECT_EQ(query.operators[0].thread_pattern, "exec-spout");
  EXPECT_EQ(query.operators[0].series_prefix, "storm.tolls.spout");
  EXPECT_TRUE(query.operators[0].is_ingress);
  EXPECT_TRUE(query.operators[2].is_egress);
  EXPECT_EQ(query.edges,
            (std::vector<std::pair<int, int>>{{0, 1}, {1, 2}}));
  EXPECT_EQ(config.spe.provided,
            (std::set<spe::RawMetric>{spe::RawMetric::kQueueSize,
                                      spe::RawMetric::kTuplesIn,
                                      spe::RawMetric::kHeadTupleAgeNs}));
}

TEST(DaemonConfigTest, DefaultsApply) {
  const DaemonConfig config = ParseDaemonConfig(R"(
[query q]
pid = 1
operator a = pat series
)");
  EXPECT_EQ(config.period_ms, 1000);
  EXPECT_EQ(config.policy, "queue-size");
  EXPECT_EQ(config.translator, "nice");
}

TEST(DaemonConfigTest, RejectsUnknownSection) {
  EXPECT_THROW(ParseDaemonConfig("[wat]\n"), std::runtime_error);
}

TEST(DaemonConfigTest, RejectsKeyOutsideSection) {
  EXPECT_THROW(ParseDaemonConfig("pid = 1\n"), std::runtime_error);
}

TEST(DaemonConfigTest, RejectsEdgeWithUnknownOperator) {
  EXPECT_THROW(ParseDaemonConfig(R"(
[query q]
pid = 1
operator a = pat series
edge = a nonexistent
)"),
               std::runtime_error);
}

TEST(DaemonConfigTest, RejectsBadRole) {
  EXPECT_THROW(ParseDaemonConfig(R"(
[query q]
pid = 1
operator a = pat series sideways
)"),
               std::runtime_error);
}

TEST(DaemonConfigTest, RejectsUnknownMetric) {
  try {
    ParseDaemonConfig(R"(
[lachesis]
provides = queue_size warp_factor
[query q]
pid = 1
operator a = pat series
)");
    FAIL() << "expected a config error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "config line 3: unknown metric 'warp_factor'");
  }
}

// `provides` takes the raw metric's RawMetricName, the suffix of the series
// the driver reads it from. The Lachesis metric names of the same values
// (tuples_in_total, busy_delta_ns, cost, ...) are not aliases: rates and
// deltas are read through the raw-metric table, and pressure comes from
// the OS.
TEST(DaemonConfigTest, ProvidesAcceptsEveryRawMetricName) {
  const auto parse = [](const std::string& names) {
    return ParseDaemonConfig("[lachesis]\nprovides = " + names +
                             "\n[query q]\npid = 1\noperator a = pat series\n");
  };
  for (std::size_t i = 0; i < spe::kRawMetricCount; ++i) {
    const auto raw = static_cast<spe::RawMetric>(i);
    EXPECT_EQ(parse(tsdb::RawMetricName(raw)).spe.provided,
              std::set<spe::RawMetric>{raw})
        << tsdb::RawMetricName(raw);
  }
  for (const char* name :
       {"tuples_in_total", "tuples_out_total", "tuples_in_delta",
        "tuples_out_delta", "busy_delta_ns", "cost", "head_tuple_age",
        "input_rate", "highest_rate", "cpu_pressure"}) {
    EXPECT_THROW(parse(name), std::runtime_error) << name;
  }
}

// One metrics file, one set: `provides` names what the file holds for
// every query, so it is a [lachesis] key, and the last line wins like any
// other key there. In a [query] section it is an unknown key.
TEST(DaemonConfigTest, ProvidesIsOneSetPerMetricsFile) {
  const DaemonConfig config = ParseDaemonConfig(R"(
[lachesis]
provides = buffer_usage
provides = queue_size tuples_in
[query a]
pid = 1
operator x = pat a.x
[query b]
pid = 2
operator y = pat b.y
)");
  EXPECT_EQ(config.spe.provided,
            (std::set<spe::RawMetric>{spe::RawMetric::kQueueSize,
                                      spe::RawMetric::kTuplesIn}));
  try {
    ParseDaemonConfig(R"(
[query a]
pid = 1
operator x = pat a.x
provides = queue_size
)");
    FAIL() << "expected a config error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "config line 5: unknown key 'provides'");
  }
}

TEST(DaemonConfigTest, RejectsEmptyConfig) {
  EXPECT_THROW(ParseDaemonConfig(""), std::runtime_error);
  EXPECT_THROW(ParseDaemonConfig("[lachesis]\nperiod_ms = 100\n"),
               std::runtime_error);
}

TEST(DaemonConfigTest, RejectsNonPositivePeriod) {
  EXPECT_THROW(ParseDaemonConfig(R"(
[lachesis]
period_ms = 0
[query q]
pid = 1
operator a = pat series
)"),
               std::runtime_error);
}

TEST(DaemonConfigTest, ParsesFaultToleranceKnobs) {
  const DaemonConfig config = ParseDaemonConfig(R"(
[lachesis]
backoff_base_ms  = 250
backoff_cap_ms   = 8000
breaker_threshold = 3
breaker_probe_ms  = 1500
degradation = off
reconcile   = no
[query q]
pid = 1
operator a = pat series
)");
  EXPECT_EQ(config.backoff_base_ms, 250);
  EXPECT_EQ(config.backoff_cap_ms, 8000);
  EXPECT_EQ(config.breaker_threshold, 3);
  EXPECT_EQ(config.breaker_probe_ms, 1500);
  EXPECT_FALSE(config.degradation);
  EXPECT_FALSE(config.reconcile);
}

TEST(DaemonConfigTest, FaultToleranceKnobDefaults) {
  const DaemonConfig config = ParseDaemonConfig(R"(
[query q]
pid = 1
operator a = pat series
)");
  EXPECT_EQ(config.backoff_base_ms, 500);
  EXPECT_EQ(config.backoff_cap_ms, 0);  // 0 = uncapped doubling
  EXPECT_EQ(config.breaker_threshold, 5);
  EXPECT_EQ(config.breaker_probe_ms, 2000);
  EXPECT_TRUE(config.degradation);
  EXPECT_TRUE(config.reconcile);
}

TEST(DaemonConfigTest, RejectsMalformedFaultToleranceValues) {
  const char* bad_bodies[] = {
      "backoff_base_ms = 0",          // must be > 0
      "backoff_base_ms = -5",         // negative
      "backoff_base_ms = fast",       // not a number
      "backoff_base_ms = 100x",       // trailing junk
      "backoff_cap_ms = -1",          // negative cap
      "backoff_cap_ms = soon",        // not a number
      "breaker_threshold = 0",        // must be >= 1
      "breaker_threshold = -2",       // negative
      "breaker_threshold = three",    // not a number
      "breaker_probe_ms = 0",         // must be > 0
      "breaker_probe_ms = 1e3",       // not a plain integer
      "degradation = maybe",          // not a boolean
      "reconcile = 2",                // not a boolean
      "period_ms = 100ms",            // trailing junk on an old knob too
  };
  for (const char* body : bad_bodies) {
    const std::string text = std::string("[lachesis]\n") + body +
                             "\n[query q]\npid = 1\noperator a = pat series\n";
    EXPECT_THROW(ParseDaemonConfig(text), std::runtime_error)
        << "accepted: " << body;
  }
}

TEST(DaemonConfigTest, RejectsCapBelowBase) {
  EXPECT_THROW(ParseDaemonConfig(R"(
[lachesis]
backoff_base_ms = 1000
backoff_cap_ms  = 500
[query q]
pid = 1
operator a = pat series
)"),
               std::runtime_error);
}

TEST(DaemonConfigTest, ParsesDeadlineAndTopologyKnobs) {
  const DaemonConfig config = ParseDaemonConfig(R"(
[lachesis]
translator = deadline
dl_runtime_ms = 2
dl_period_ms  = 20
critical_queries = tolls accidents
big_cores    = 4 5 6 7
little_cores = 0 1 2 3
[query tolls]
pid = 1
operator a = pat series
)");
  EXPECT_EQ(config.translator, "deadline");
  EXPECT_EQ(config.dl_runtime_ms, 2);
  EXPECT_EQ(config.dl_period_ms, 20);
  EXPECT_EQ(config.critical_queries,
            (std::vector<std::string>{"tolls", "accidents"}));
  EXPECT_EQ(config.big_cores, (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(config.little_cores, (std::vector<int>{0, 1, 2, 3}));
}

TEST(DaemonConfigTest, DeadlineAndTopologyKnobDefaults) {
  const DaemonConfig config = ParseDaemonConfig(R"(
[query q]
pid = 1
operator a = pat series
)");
  EXPECT_EQ(config.dl_runtime_ms, 4);
  EXPECT_EQ(config.dl_period_ms, 10);
  EXPECT_TRUE(config.critical_queries.empty());
  EXPECT_TRUE(config.big_cores.empty());
  EXPECT_TRUE(config.little_cores.empty());
}

TEST(DaemonConfigTest, RejectsMalformedDeadlineAndTopologyValues) {
  const char* bad_bodies[] = {
      "dl_runtime_ms = 0",      // must be > 0
      "dl_runtime_ms = -4",     // negative
      "dl_runtime_ms = slow",   // not a number
      "dl_period_ms = 0",       // must be > 0
      "dl_period_ms = 10ms",    // trailing junk
      "big_cores = 0 -1",       // negative core id
      "little_cores = one two", // not numbers
  };
  for (const char* body : bad_bodies) {
    const std::string text = std::string("[lachesis]\n") + body +
                             "\n[query q]\npid = 1\noperator a = pat series\n";
    EXPECT_THROW(ParseDaemonConfig(text), std::runtime_error)
        << "accepted: " << body;
  }
}

TEST(DaemonConfigTest, RejectsPeriodShorterThanRuntime) {
  // A reservation of 8ms CPU every 4ms is over-unity by construction.
  EXPECT_THROW(ParseDaemonConfig(R"(
[lachesis]
dl_runtime_ms = 8
dl_period_ms  = 4
[query q]
pid = 1
operator a = pat series
)"),
               std::runtime_error);
}

TEST(DaemonConfigTest, RejectsCoreListedAsBothBigAndLittle) {
  try {
    ParseDaemonConfig(R"(
[lachesis]
big_cores    = 2 3
little_cores = 0 1 2
[query q]
pid = 1
operator a = pat series
)");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos) << e.what();
  }
}

TEST(DaemonConfigTest, MalformedKnobErrorsCarryLineNumbers) {
  try {
    ParseDaemonConfig("[lachesis]\nbreaker_threshold = nope\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(DaemonConfigTest, ErrorsCarryLineNumbers) {
  try {
    ParseDaemonConfig("\n\n[query q]\nbogus = 1\npid = 1\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
}

// A misspelt name used to be stored as is: lachesisd then died in its
// policy factory after its executor threads had started, with no line.
TEST(DaemonConfigTest, RejectsUnknownPolicyAndTranslatorWithLineNumber) {
  const struct {
    const char* key;
    const char* name;
  } kCases[] = {{"policy", "queue-sise"}, {"translator", "nicee"}};
  for (const auto& c : kCases) {
    const std::string text = std::string("[lachesis]\nperiod_ms = 100\n") +
                             c.key + " = " + c.name +
                             "\n[query q]\npid = 1\noperator a = pat s\n";
    try {
      ParseDaemonConfig(text);
      ADD_FAILURE() << "accepted: " << c.name;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
      EXPECT_NE(what.find(c.name), std::string::npos) << what;
    }
  }
}

TEST(DaemonConfigTest, EveryAcceptedPolicyAndTranslatorBuilds) {
  const auto parse = [](const std::string& line) {
    return ParseDaemonConfig("[lachesis]\n" + line +
                             "\n[query q]\npid = 1\noperator a = pat s\n");
  };
  for (const char* name :
       {"queue-size", "fcfs", "highest-rate", "random", "min-memory"}) {
    EXPECT_EQ(parse(std::string("policy = ") + name).policy, name);
    EXPECT_NE(MakePolicy(name), nullptr) << name;
  }
  const DaemonConfig defaults;
  for (const char* name : {"nice", "cpu.shares", "quota", "rt", "deadline"}) {
    EXPECT_EQ(parse(std::string("translator = ") + name).translator, name);
    EXPECT_NE(MakeTranslator(name, defaults), nullptr) << name;
  }
  EXPECT_THROW(MakePolicy("queue-sise"), std::invalid_argument);
  EXPECT_THROW(MakeTranslator("nicee", defaults), std::invalid_argument);
}

// Each translator's degradation ladder, best-first, by the names the
// fallback translators report.
TEST(DaemonConfigTest, EachTranslatorHasItsDegradationLadder) {
  const std::map<std::string, std::vector<std::string>> kLadders = {
      {"deadline", {"rt+nice", "cpu.shares", "nice"}},
      {"rt", {"cpu.shares", "nice"}},
      {"cpu.shares", {"nice"}},
      {"quota", {"nice"}},
      {"nice", {}},
  };
  const DaemonConfig defaults;
  for (const auto& [name, expected] : kLadders) {
    std::vector<std::string> ladder;
    for (const auto& fallback : MakeFallbackTranslators(name, defaults)) {
      ladder.push_back(fallback->name());
    }
    EXPECT_EQ(ladder, expected) << name;
  }
  EXPECT_THROW(MakeFallbackTranslators("nicee", defaults),
               std::invalid_argument);
}

// Both operators used to become entities, and `edge` lines bound only the
// second, leaving the first with no edges.
TEST(DaemonConfigTest, RejectsDuplicateOperatorInQueryWithLineNumber) {
  try {
    ParseDaemonConfig("[query q]\npid = 1\noperator a = pat-a s.a\n"
                      "operator a = pat-b s.b\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate operator 'a'"), std::string::npos) << what;
  }
  // One name in two queries is two operators.
  const DaemonConfig config = ParseDaemonConfig(
      "[query q]\npid = 1\noperator a = pat s\n"
      "[query r]\npid = 2\noperator a = pat s\n");
  EXPECT_EQ(config.spe.queries.size(), 2u);
}

// The Highest Rate policy walks every path from an operator to a sink, and
// a path around a cycle never reaches one: the walk never returned.
TEST(DaemonConfigTest, RejectsEdgeClosingACycleWithLineNumber) {
  const std::string header =
      "[query q]\npid = 1\noperator a = pat-a s.a\n"
      "operator b = pat-b s.b\noperator c = pat-c s.c\n";
  try {
    ParseDaemonConfig(header + "edge = a b\nedge = b a\nedge = b c\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 7"), std::string::npos) << what;
    EXPECT_NE(what.find("edge 'b a' closes a cycle"), std::string::npos)
        << what;
  }
  // Two paths that meet again are not a cycle.
  const DaemonConfig diamond = ParseDaemonConfig(
      header + "edge = a b\nedge = a c\nedge = b c\n");
  EXPECT_EQ(diamond.spe.queries[0].edges.size(), 3u);
}

TEST(DaemonConfigTest, RejectsSelfEdgeWithLineNumber) {
  try {
    ParseDaemonConfig("[query q]\npid = 1\noperator a = pat-a s.a\n"
                      "operator b = pat-b s.b\nedge = a b\nedge = b b\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 6"), std::string::npos) << what;
    EXPECT_NE(what.find("edge 'b b' closes a cycle"), std::string::npos)
        << what;
  }
}

// The kernel keeps at most 15 bytes of a thread name, so a longer pattern
// could never match and the operator would never be managed.
TEST(DaemonConfigTest, RejectsThreadPatternLongerThanAKernelThreadName) {
  const std::string fifteen = "exec-parse-bolt";
  ASSERT_EQ(fifteen.size(), 15u);
  const DaemonConfig config = ParseDaemonConfig(
      "[query q]\npid = 1\noperator a = " + fifteen + " s.a\n");
  ASSERT_EQ(config.spe.queries.at(0).operators.size(), 1u);
  EXPECT_EQ(config.spe.queries[0].operators[0].thread_pattern, fifteen);
  try {
    ParseDaemonConfig("[query q]\npid = 1\noperator a = pat s.a\n"
                      "operator b = " + fifteen + "s s.b\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("'exec-parse-bolts'"), std::string::npos) << what;
    EXPECT_NE(what.find("15 bytes"), std::string::npos) << what;
  }
}

TEST(DaemonConfigTest, RejectsMalformedPidWithLineNumber) {
  // A trailing-garbage pid must not be read as its numeric prefix: lachesisd
  // would scan (and renice) some other process's threads.
  for (const char* pid : {"12abc", "abc", "0", "-5"}) {
    const std::string text = std::string("[query q]\npid = ") + pid +
                             "\noperator a = pat series\n";
    try {
      ParseDaemonConfig(text);
      ADD_FAILURE() << "pid = " << pid << " accepted";
    } catch (const std::exception& e) {
      EXPECT_NE(dynamic_cast<const std::runtime_error*>(&e), nullptr)
          << "pid = " << pid << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << "pid = " << pid << ": " << e.what();
    }
  }
}

// Without a pid the driver could find none of the query's threads, so
// lachesisd would manage nothing for it and never say why.
TEST(DaemonConfigTest, RejectsQueryWithoutPidAtItsHeaderLine) {
  const struct {
    const char* text;
    const char* line;
  } kCases[] = {
      {"[lachesis]\nperiod_ms = 100\n\n[query q]\noperator a = pat series\n",
       "line 4"},
      {"[query first]\npid = 9\noperator a = pat series\n"
       "[query second]\noperator b = pat series\n",
       "line 4"},
  };
  for (const auto& c : kCases) {
    try {
      ParseDaemonConfig(c.text);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.line), std::string::npos) << what;
      EXPECT_NE(what.find("pid"), std::string::npos) << what;
    }
  }
}

TEST(DaemonConfigTest, CommentsAndWhitespaceIgnored)
{
  const DaemonConfig config = ParseDaemonConfig(R"(
  # comment
  [lachesis]   # trailing comment
    period_ms =   250
[query   spaced name  ]
pid=7
operator a = pat series
)");
  EXPECT_EQ(config.period_ms, 250);
  EXPECT_EQ(config.spe.queries[0].name, "spaced name");
  EXPECT_EQ(config.spe.queries[0].pid, 7);
}

// --- [native-query ...] sections: the daemon's in-process executor ---------

TEST(DaemonConfigTest, ParsesNativeQuerySections) {
  const DaemonConfig config = ParseDaemonConfig(R"(
[lachesis]
period_ms = 200
native_pin_cores = 0 2

[native-query etl]
rate_tps = 2500.5
queue_capacity = 256
source_channel = 4096
operators = in:5 work:150 out:10

[native-query light]
operators = src:1 sink:1
)");
  EXPECT_EQ(config.native_pin_cores, (std::vector<int>{0, 2}));
  ASSERT_EQ(config.native_queries.size(), 2u);
  const NativeChainConfig& etl = config.native_queries[0];
  EXPECT_EQ(etl.name, "etl");
  EXPECT_DOUBLE_EQ(etl.rate_tps, 2500.5);
  EXPECT_EQ(etl.queue_capacity, 256);
  EXPECT_EQ(etl.source_channel, 4096);
  ASSERT_EQ(etl.operators.size(), 3u);
  EXPECT_EQ(etl.operators[0].name, "in");
  EXPECT_EQ(etl.operators[0].cost_us, 5);
  EXPECT_EQ(etl.operators[1].name, "work");
  EXPECT_EQ(etl.operators[1].cost_us, 150);
  EXPECT_EQ(etl.operators[2].name, "out");
  EXPECT_EQ(etl.operators[2].cost_us, 10);
  // Second section picks up the documented defaults.
  const NativeChainConfig& light = config.native_queries[1];
  EXPECT_DOUBLE_EQ(light.rate_tps, 1000.0);
  EXPECT_EQ(light.queue_capacity, 1024);
  EXPECT_EQ(light.source_channel, 8192);
}

TEST(DaemonConfigTest, NativeQueryAloneSatisfiesTheNoQueriesCheck) {
  // A config with only an in-process chain (no external [query ...]) is
  // complete: the daemon serves traffic itself.
  const DaemonConfig config = ParseDaemonConfig(R"(
[native-query solo]
operators = in:1 out:1
)");
  EXPECT_TRUE(config.spe.queries.empty());
  ASSERT_EQ(config.native_queries.size(), 1u);
  EXPECT_TRUE(config.native_pin_cores.empty());  // default: kernel placement
}

TEST(DaemonConfigTest, RejectsMalformedNativeQuerySections) {
  // Chain too short for ingress + egress.
  EXPECT_THROW(
      ParseDaemonConfig("[native-query q]\noperators = only:1\n"),
      std::runtime_error);
  // Section must be named.
  EXPECT_THROW(
      ParseDaemonConfig("[native-query]\noperators = a:1 b:1\n"),
      std::runtime_error);
  // Duplicate chain names.
  EXPECT_THROW(ParseDaemonConfig("[native-query q]\noperators = a:1 b:1\n"
                                 "[native-query q]\noperators = c:1 d:1\n"),
               std::runtime_error);
  // Duplicate operator within a chain.
  EXPECT_THROW(
      ParseDaemonConfig("[native-query q]\noperators = a:1 a:2\n"),
      std::runtime_error);
  // operators entries must be <name>:<cost_us>.
  EXPECT_THROW(ParseDaemonConfig("[native-query q]\noperators = a b\n"),
               std::runtime_error);
  EXPECT_THROW(ParseDaemonConfig("[native-query q]\noperators = a: :1\n"),
               std::runtime_error);
  EXPECT_THROW(ParseDaemonConfig("[native-query q]\noperators = a:-5 b:1\n"),
               std::runtime_error);
  // Range checks on the chain knobs.
  EXPECT_THROW(ParseDaemonConfig("[native-query q]\nrate_tps = 0\n"
                                 "operators = a:1 b:1\n"),
               std::runtime_error);
  EXPECT_THROW(ParseDaemonConfig("[native-query q]\nqueue_capacity = 1\n"
                                 "operators = a:1 b:1\n"),
               std::runtime_error);
  EXPECT_THROW(ParseDaemonConfig("[native-query q]\nsource_channel = 1\n"
                                 "operators = a:1 b:1\n"),
               std::runtime_error);
  // Unknown key inside a native section.
  EXPECT_THROW(ParseDaemonConfig("[native-query q]\npid = 3\n"
                                 "operators = a:1 b:1\n"),
               std::runtime_error);
}

TEST(DaemonConfigTest, RejectsMalformedNativePinCores) {
  EXPECT_THROW(ParseDaemonConfig("[lachesis]\nnative_pin_cores = -1\n"
                                 "[native-query q]\noperators = a:1 b:1\n"),
               std::runtime_error);
  EXPECT_THROW(ParseDaemonConfig("[lachesis]\nnative_pin_cores = zero\n"
                                 "[native-query q]\noperators = a:1 b:1\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace lachesis::osctl
