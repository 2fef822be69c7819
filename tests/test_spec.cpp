// Textual-frontend tests: spec parsing, program construction, error
// reporting with line numbers, end-to-end execution of a spec-built program
// against the serial reference, and a deterministic mutation fuzz of the two
// parsers that read text from outside the program — the spec frontend and
// the JSON reader behind fault plans, bench reports and history ledgers.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "frontend/spec.hpp"
#include "resilience/fault_plan.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "workload/report.hpp"

namespace msc::frontend {
namespace {

const char* k3d7ptSpec = R"(# 3-D 7-point, two time dependencies
name  spec3d7pt
grid  20 20 20
halo  1
dtype f64
point  0 0 0   0.4
point  0 0 -1  0.1
point  0 0 1   0.1
point  0 -1 0  0.1
point  0 1 0   0.1
point -1 0 0   0.1
point  1 0 0   0.1
term  -1 0.6
term  -2 0.4
tile  4 4 8
parallel 4
mpi   2 2 2
)";

TEST(SpecParse, FullSpecRoundTrip) {
  const auto spec = parse_spec(k3d7ptSpec);
  EXPECT_EQ(spec.name, "spec3d7pt");
  ASSERT_EQ(spec.grid.size(), 3u);
  EXPECT_EQ(spec.grid[0], 20);
  EXPECT_EQ(spec.halo, 1);
  EXPECT_EQ(spec.dtype, ir::DataType::f64);
  EXPECT_EQ(spec.points.size(), 7u);
  EXPECT_DOUBLE_EQ(spec.points[0].coeff, 0.4);
  EXPECT_EQ(spec.points[1].offset[2], -1);
  ASSERT_EQ(spec.terms.size(), 2u);
  EXPECT_EQ(spec.terms[1].offset, -2);
  EXPECT_EQ(spec.tile[2], 8);
  EXPECT_EQ(spec.parallel_threads, 4);
  EXPECT_EQ(spec.mpi, (std::vector<int>{2, 2, 2}));
}

TEST(SpecParse, DefaultsAndComments) {
  const auto spec = parse_spec("name x\ngrid 8 8  # 2-D\npoint 0 0 1.0\n");
  EXPECT_EQ(spec.terms.size(), 1u);  // implicit term -1 1.0
  EXPECT_EQ(spec.terms[0].offset, -1);
  EXPECT_EQ(spec.dtype, ir::DataType::f64);
  EXPECT_EQ(spec.tile[0], 0);
}

TEST(SpecParse, ErrorsCarryLineNumbers) {
  try {
    parse_spec("name x\ngrid 8 8\nbogus 1 2\n");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(SpecParse, RejectsMalformedDirectives) {
  EXPECT_THROW(parse_spec("grid 8 8\npoint 0 0 1.0\n"), Error);          // no name
  EXPECT_THROW(parse_spec("name x\npoint 0 0 1.0\n"), Error);            // no grid
  EXPECT_THROW(parse_spec("name x\ngrid 8 8\n"), Error);                 // no points
  EXPECT_THROW(parse_spec("name x\ngrid 8 8\npoint 0 1.0\n"), Error);    // arity
  EXPECT_THROW(parse_spec("name x\ngrid 8 8\ndtype f16\npoint 0 0 1\n"), Error);
  EXPECT_THROW(parse_spec("name x\ngrid 8 8\npoint 0 zz 1.0\n"), Error); // bad int
}

TEST(SpecBuild, ProgramRunsAndValidates) {
  auto prog = program_from_spec(k3d7ptSpec);
  EXPECT_EQ(prog->stencil().time_window(), 3);
  EXPECT_EQ(prog->stencil().max_radius(), 1);
  EXPECT_EQ(prog->mpi_shape().processes(), 8);
  EXPECT_EQ(prog->primary_schedule().parallel_threads(), 4);
  prog->input(dsl::GridRef(prog->stencil().state()), 11);
  EXPECT_LT(prog->relative_error_vs_reference(1, 4), 1e-10);
}

TEST(SpecBuild, GeneratesAllTargets) {
  auto prog = program_from_spec(k3d7ptSpec);
  for (const auto* target : {"c", "openmp", "sunway", "openacc"})
    EXPECT_FALSE(prog->compile_to_source_code(target).empty()) << target;
}

TEST(SpecBuild, ParallelWithoutTileRejected) {
  EXPECT_THROW(program_from_spec("name x\ngrid 8 8\npoint 0 0 1.0\nparallel 4\n"), Error);
}

TEST(SpecBuild, TwoDimensionalSpecWorks) {
  auto prog = program_from_spec(
      "name heat2d\ngrid 16 16\nhalo 1\npoint 0 0 0.6\npoint 0 -1 0.1\npoint 0 1 0.1\n"
      "point -1 0 0.1\npoint 1 0 0.1\ntile 8 8\n");
  prog->input(dsl::GridRef(prog->stencil().state()), 3);
  EXPECT_LT(prog->relative_error_vs_reference(1, 3), 1e-12);
}

TEST(SpecParse, RejectsOutOfRangeFieldsWithLineNumbers) {
  const std::string head = "name x\ngrid 8 8\npoint 0 0 1.0\n";
  // Each used to wrap silently through a static_cast<int>, drop the
  // schedule, or let nan through as a coefficient.
  for (const char* line : {"term -4294967297 0.6", "term -2147483648 1", "term 0 1",
                           "term 3 1", "parallel 4294967300", "parallel -3", "parallel 0",
                           "mpi 4294967298 1", "mpi 0 2", "tile -4 4", "tile 0 4",
                           "grid 0 8", "grid 8 -8", "halo -1", "point 0 0 nan",
                           "point 0 0 inf", "point 0 0 1e999", "term -1 -inf",
                           "point 9223372036854775807 0 1", "point 0 99999999999999999999 1"}) {
    SCOPED_TRACE(line);
    try {
      parse_spec(head + line + "\n");
      ADD_FAILURE() << "accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
    }
  }
  // The domain edges themselves stay legal.
  const auto spec = parse_spec(head + "term -1024 1\ntile 1 1\nparallel 65536\nmpi 1 65536\n");
  EXPECT_EQ(spec.terms[0].offset, -1024);
  EXPECT_EQ(spec.parallel_threads, 65536);
}

// ---- deterministic mutation fuzz -----------------------------------------

// Tokens that stress integer conversion, float parsing and directive
// dispatch; the mutators splice them into otherwise valid inputs.
const std::vector<std::string>& nasty_tokens() {
  static const std::vector<std::string> tokens = {
      "-2147483648", "2147483647", "4294967300", "-4294967297", "9223372036854775807",
      "-9223372036854775808", "99999999999999999999", "nan", "-nan", "inf", "-inf", "1e999",
      "-1e-999", "0", "-1", "-3", "1", "2", "0x10", "1.5", "+7", "--1", "#", "# c", "\"",
      "f32", "f64", "f16", "name", "grid", "halo", "dtype", "point", "term", "tile",
      "parallel", "mpi", "\t", "\r", "{", "[", "\x01", "\xff"};
  return tokens;
}

/// One random edit of `text`: swap a whitespace token for a nasty one,
/// duplicate / delete / swap whole lines, flip or insert a byte, truncate.
std::string mutate_spec(const std::string& text, Rng& rng) {
  auto lines = split(text, '\n');
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_int(0, static_cast<std::int64_t>(n) - 1));
  };
  if (lines.empty()) lines.push_back("");
  const std::size_t l = pick(lines.size());
  switch (rng.next_int(0, 5)) {
    case 0: {  // replace one token of a line
      auto toks = split(lines[l], ' ');
      if (toks.empty()) toks.push_back("");
      toks[pick(toks.size())] = nasty_tokens()[pick(nasty_tokens().size())];
      lines[l] = join(toks, " ");
      break;
    }
    case 1: lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(l), lines[l]); break;
    case 2: lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(l)); break;
    case 3: std::swap(lines[l], lines[pick(lines.size())]); break;
    case 4:
      lines[l].insert(pick(lines[l].size() + 1), 1,
                      static_cast<char>(rng.next_int(0, 255)));
      break;
    default: lines[l] = lines[l].substr(0, pick(lines[l].size() + 1)); break;
  }
  return join(lines, "\n");
}

/// The spec contract: any text either builds a program or throws
/// msc::Error — never another exception, never undefined behaviour (the
/// asan-ubsan CI job runs this loop under the sanitizers).
::testing::AssertionResult spec_parses_or_errors(const std::string& text) {
  try {
    program_from_spec(text);
  } catch (const Error&) {
  } catch (const std::exception& e) {
    return ::testing::AssertionFailure() << "non-msc exception '" << e.what() << "' on:\n"
                                         << text;
  }
  return ::testing::AssertionSuccess();
}

TEST(SpecFuzz, MutatedSpecsParseOrThrowMscError) {
  const std::vector<std::string> seeds = {
      k3d7ptSpec,
      "name heat2d\ngrid 16 16\nhalo 1\npoint 0 0 0.6\npoint 0 -1 0.1\npoint 0 1 0.1\n"
      "point -1 0 0.1\npoint 1 0 0.1\ntile 8 8\nparallel 2\n"};
  // Fixed cases first: the inputs that once wrapped or overflowed.
  for (const char* text : {"name x\ngrid 8 8\npoint 0 0 1\nterm -2147483648 1\n",
                           "name x\ngrid 8 8\npoint 0 0 1\nterm -4294967297 0.6\n",
                           "name x\ngrid 8 8 8\npoint 0 0 0 1\nmpi 4294967298 1\n"}) {
    EXPECT_THROW(parse_spec(text), Error) << text;
    EXPECT_TRUE(spec_parses_or_errors(text));
  }
  Rng rng(20240601);
  int built = 0;
  for (int n = 0; n < 4000; ++n) {
    std::string text = seeds[static_cast<std::size_t>(n) % seeds.size()];
    for (std::int64_t m = rng.next_int(1, 4); m > 0; --m) text = mutate_spec(text, rng);
    ASSERT_TRUE(spec_parses_or_errors(text)) << "iteration " << n;
    try {
      program_from_spec(text);
      ++built;
    } catch (const Error&) {
    }
  }
  // A mutator that only ever breaks its input would prove nothing about the
  // accepting paths.
  EXPECT_GT(built, 100);
}

/// Random edits of JSON text: flip/insert/delete bytes, splice structural
/// characters, nasty tokens or copies of other spans, truncate.
std::string mutate_json(const std::string& text, Rng& rng) {
  std::string out = text;
  const auto at = [&] {
    return static_cast<std::size_t>(rng.next_int(0, static_cast<std::int64_t>(out.size())));
  };
  switch (rng.next_int(0, 5)) {
    case 0: {
      static const char kStruct[] = "{}[]:,\"\\-+.eE0123456789tfn ";
      out.insert(at(), 1, kStruct[rng.next_int(0, sizeof kStruct - 2)]);
      break;
    }
    case 1: out.insert(at(), nasty_tokens()[static_cast<std::size_t>(
                                  rng.next_int(0, static_cast<std::int64_t>(
                                                      nasty_tokens().size()) - 1))]);
      break;
    case 2:
      if (!out.empty()) out.erase(at() % out.size(), 1);
      break;
    case 3:
      if (!out.empty()) out[at() % out.size()] = static_cast<char>(rng.next_int(0, 255));
      break;
    case 4: {
      const std::size_t a = at(), b = at();
      out.insert(at(), out.substr(std::min(a, b), std::max(a, b) - std::min(a, b)));
      break;
    }
    default: out.resize(at()); break;
  }
  return out;
}

TEST(JsonFuzz, MutatedDocumentsParseOrThrowMscError) {
  const std::vector<std::string> seeds = {
      R"({"schema":"msc-fault-plan-v1","seed":7,"rules":[{"kind":"drop","rank":1,)"
      R"("tag":103,"nth":2},{"kind":"delay","ms":1.5e-3}]})",
      R"({"schema":"msc-bench-v1","name":"x","config":{"reps":5,"dtype":"f64"},)"
      R"("results":[{"benchmark":"a","gflops":1.25,"ok":true,"note":null,"s":"é
"}]})",
      R"([[1,[2,[3,{"a":[-0.5e+2,true,false,null]}]]],""esc\aped""])"};
  // Fixed cases: the deepest legal nest, one past it, and the 100000-deep
  // nest that used to overflow the stack.
  EXPECT_NO_THROW(workload::Json::parse(std::string(512, '[') + std::string(512, ']')));
  EXPECT_THROW(workload::Json::parse(std::string(513, '[') + std::string(513, ']')), Error);
  EXPECT_THROW(workload::Json::parse(std::string(100000, '[')), Error);
  EXPECT_THROW(workload::Json::parse(std::string(100000, '{')), Error);
  EXPECT_THROW(workload::Json::parse(R"({"a":)" + std::string(100000, '[')), Error);

  Rng rng(777);
  for (int n = 0; n < 20000; ++n) {
    std::string text = seeds[static_cast<std::size_t>(n) % seeds.size()];
    for (std::int64_t m = rng.next_int(1, 4); m > 0; --m) text = mutate_json(text, rng);
    for (int which = 0; which < 2; ++which) {
      try {
        if (which == 0)
          workload::Json::parse(text);
        else
          resilience::FaultPlan::parse(text);
      } catch (const Error&) {
      } catch (const std::exception& e) {
        FAIL() << "iteration " << n << (which == 0 ? " Json::parse" : " FaultPlan::parse")
               << ": non-msc exception '" << e.what() << "' on:\n" << text;
      }
    }
  }
}

}  // namespace
}  // namespace msc::frontend
