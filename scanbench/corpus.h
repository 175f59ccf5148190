// Workload definitions and the seeded corpus generator of the end-to-end
// scan benchmark (README.md). The generator is load-generator code: it
// crafts the scan corpus and the benign calibration set from a seed and
// writes them as PPM/PGM/BMP files, so the program under test only ever
// sees image files, as `decamctl scan` does.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace scanbench {

/// How a workload reaches its verdict, mirroring `decamctl scan` flags.
enum class Mode {
  ShortCircuit,  // --short-circuit: EnsembleDetector::decide on a context
  FullVote,      // default: independent member scores + vote_scores
  Defended,      // --defense=<chain>: full vote through DefendedDetector
};

enum class Label { Benign, Plain, OffGrid };

const char* to_string(Label label);

/// One image geometry of a workload's mix and how many images of each
/// kind it contributes. Plain and off-grid attacks of the same index share
/// one crafted base attack (off-grid = the base blended by spread 0.7).
struct Category {
  std::string name;
  int width = 0;
  int height = 0;
  bool color = true;
  int benign = 0;
  int plain = 0;
  int offgrid = 0;
  int calibration = 0;  // benign regime-A scenes in the calibration set
};

struct Workload {
  std::string name;
  Mode mode = Mode::FullVote;
  std::string defense;  // DefenseChain spec, empty = none
  std::vector<Category> categories;
};

/// One of the three workloads (guard_sc, sanitize_full, defended_scan);
/// throws std::invalid_argument for an unknown name.
const Workload& find_workload(const std::string& name);

struct CorpusEntry {
  std::string file;      // path of the written image
  std::string category;  // Category::name
  Label label = Label::Benign;
  int width = 0;
  int height = 0;
  int channels = 0;
  std::uintmax_t bytes = 0;  // encoded file size
};

struct Corpus {
  std::vector<CorpusEntry> scan;         // regime-B traffic, in scan order
  std::vector<CorpusEntry> calibration;  // regime-A benign scenes
};

/// Generates the workload's corpus for `seed` under `dir` (created if
/// needed). The scan traffic follows the seed; the calibration set is the
/// same for every seed. The same seed writes byte-identical files:
/// generation fans out over the runtime pool, but every image draws from
/// its own pre-forked random stream, so the lane count never matters.
Corpus write_corpus(const Workload& workload, std::uint64_t seed,
                    const std::filesystem::path& dir);

/// The corpus manifest (one TSV line per image: set, file, category, label,
/// width, height, channels, bytes), so that scanning runs in a process of
/// its own and its peak memory excludes the generator's.
void write_manifest(const Corpus& corpus, const std::filesystem::path& file);
Corpus read_manifest(const std::filesystem::path& file);

}  // namespace scanbench
