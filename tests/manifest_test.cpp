// Per-run manifest sidecars (bench/bench_common.h, schema
// `decam-run-manifest-v1`): serialisation, schema validation, tamper
// rejection, and the default path convention.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "obs/metrics.h"

namespace decam::bench::manifest {
namespace {

RunManifest sample_manifest() {
  RunManifest m;
  m.binary = "manifest_test";
  m.argv = {"--quick", "--out", "BENCH_x.json"};
  m.quick = true;
  m.seed = 42;
  m.image_width = 96;
  m.image_height = 96;
  m.threads = 2;
  return m;
}

TEST(ManifestTest, SerialisedManifestValidates) {
  const std::string doc = manifest_json(sample_manifest());
  EXPECT_EQ(validate_manifest_json(doc), "") << doc;
}

TEST(ManifestTest, DocumentCarriesRunAndBuildFields) {
  const std::string doc = manifest_json(sample_manifest());
  EXPECT_NE(doc.find("\"schema\": \"decam-run-manifest-v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"binary\": \"manifest_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"threads\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(doc.find("\"quick\": true"), std::string::npos);
  EXPECT_NE(doc.find("\"type\": \""), std::string::npos);
  EXPECT_NE(doc.find("\"sanitize\": \""), std::string::npos);
}

TEST(ManifestTest, MetricSnapshotIsEmbedded) {
  obs::MetricsRegistry::instance().counter("manifest_test/hits").add(9);
  obs::MetricsRegistry::instance().histogram("manifest_test/lat").record(1.5);
  const std::string doc = manifest_json(sample_manifest());
  EXPECT_EQ(validate_manifest_json(doc), "") << doc;
  EXPECT_NE(doc.find("\"name\": \"manifest_test/hits\", \"value\": 9"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"name\": \"manifest_test/lat\""), std::string::npos)
      << doc;
}

TEST(ManifestTest, ZeroThreadsResolvesToRuntimeCount) {
  RunManifest m = sample_manifest();
  m.threads = 0;  // "resolve at serialisation time"
  const std::string doc = manifest_json(m);
  EXPECT_EQ(validate_manifest_json(doc), "") << doc;
  EXPECT_EQ(doc.find("\"threads\": 0"), std::string::npos) << doc;
}

TEST(ManifestTest, ArgvStringsAreEscaped) {
  RunManifest m = sample_manifest();
  m.argv = {"--filter", "a\"b\\c"};
  const std::string doc = manifest_json(m);
  EXPECT_EQ(validate_manifest_json(doc), "") << doc;
  EXPECT_NE(doc.find("a\\\"b\\\\c"), std::string::npos) << doc;
}

TEST(ManifestTest, TamperedDocumentsAreRejected) {
  EXPECT_NE(validate_manifest_json("not json"), "");
  EXPECT_NE(validate_manifest_json("[]"), "");
  EXPECT_NE(validate_manifest_json(
                "{\"schema\": \"decam-run-manifest-v2\"}"),
            "");
  // Structurally valid JSON missing required sections.
  const std::string no_build =
      "{\"schema\": \"decam-run-manifest-v1\", \"binary\": \"x\", "
      "\"argv\": []}";
  EXPECT_NE(validate_manifest_json(no_build), "");
  // threads must be a positive number.
  std::string doc = manifest_json(sample_manifest());
  const std::string needle = "\"threads\": 2";
  doc.replace(doc.find(needle), needle.size(), "\"threads\": 0");
  EXPECT_NE(validate_manifest_json(doc), "");
}

TEST(ManifestTest, DefaultPathUsesBinaryBasename) {
  EXPECT_EQ(default_manifest_path("/a/b/kernel_bench"),
            "MANIFEST_kernel_bench.json");
  EXPECT_EQ(default_manifest_path("table7"), "MANIFEST_table7.json");
  EXPECT_EQ(default_manifest_path("/a/b/repro", "table2"),
            "MANIFEST_repro_table2.json");
}

TEST(ManifestTest, WriteManifestRoundTripsThroughDisk) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "decam_manifest_test.json";
  ASSERT_TRUE(write_manifest(sample_manifest(), path.string()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(validate_manifest_json(content.str()), "");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace decam::bench::manifest
