// Doc-snippet conformance: every spec string quoted in
// docs/backend-specs.md, docs/architecture.md and docs/trace-replay.md
// (fenced blocks tagged `spec`) must parse and validate against the live
// registry, and every registered backend family must have at least one
// runnable example in the spec reference.  This is the
// machine check that keeps the documentation from drifting away from
// BackendSpec::parse and the registered option lists.
//
// ZC_DOCS_DIR is injected by CMakeLists.txt and points at the source
// tree's docs/ directory, so the test reads the same file a reader does.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/backend_registry.hpp"

namespace zc {
namespace {

#ifndef ZC_DOCS_DIR
#error "ZC_DOCS_DIR must point at the repo's docs/ directory"
#endif

std::string trimmed(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// Every line of every ```spec fenced block, in file order.
std::vector<std::string> extract_doc_specs(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::vector<std::string> specs;
  std::string line;
  bool in_spec_block = false;
  while (std::getline(in, line)) {
    const std::string t = trimmed(line);
    if (!in_spec_block) {
      in_spec_block = t == "```spec";
      continue;
    }
    if (t.rfind("```", 0) == 0) {
      in_spec_block = false;
      continue;
    }
    if (!t.empty()) specs.push_back(t);
  }
  EXPECT_FALSE(in_spec_block) << path << ": unterminated ```spec block";
  return specs;
}

const std::string kSpecsDoc = std::string(ZC_DOCS_DIR) + "/backend-specs.md";
const std::string kArchDoc = std::string(ZC_DOCS_DIR) + "/architecture.md";
const std::string kTraceDoc = std::string(ZC_DOCS_DIR) + "/trace-replay.md";

TEST(DocSpecsTest, EveryQuotedSpecValidatesAgainstTheRegistry) {
  for (const std::string& doc : {kSpecsDoc, kArchDoc, kTraceDoc}) {
    const auto specs = extract_doc_specs(doc);
    ASSERT_FALSE(specs.empty())
        << doc << " has no ```spec blocks — the reference lost its "
        << "runnable examples";
    for (const std::string& spec : specs) {
      // Grammar + backend key + option names (recursively through nested
      // inner= specs).  Option *values* are checked at create() time
      // against a concrete enclave (e.g. intel sl= name resolution) and
      // are intentionally out of scope here.
      EXPECT_NO_THROW(BackendRegistry::instance().validate(spec))
          << "documented spec does not validate: '" << spec << "'";
    }
  }
}

TEST(DocSpecsTest, EveryRegisteredFamilyHasARunnableExample) {
  std::set<std::string> documented;
  for (const std::string& spec : extract_doc_specs(kSpecsDoc)) {
    try {
      documented.insert(BackendSpec::parse(spec).key);
    } catch (const BackendSpecError&) {
      // The validation test reports the broken spec with a better message.
    }
  }
  for (const std::string& key : BackendRegistry::instance().keys()) {
    // Test-local registrations (e.g. the registry unit test's echo_test
    // clone) are not part of the documented surface.
    if (key.find("test") != std::string::npos) continue;
    EXPECT_TRUE(documented.contains(key))
        << "backend '" << key << "' has no ```spec example in " << kSpecsDoc;
  }
}

TEST(DocSpecsTest, DocumentedCompositionAndGateOptionsExist) {
  // The composition/wait surface the reference teaches: record's nested
  // inner= specs, the batched flush window and the four gate policies.
  // These strings appear verbatim in the prose and must keep validating
  // even if the example blocks are rearranged.
  for (const char* spec :
       {"record:inner=(zc_batched:workers=1;batch=4)",
        "record:file=run.trace;inner=(zc_async:workers=1;queue=8)",
        "zc_batched:flush_us=100", "zc:wait=futex;spin_us=0", "zc:wait=spin",
        "zc:wait=condvar", "zc_batched:wait=futex", "zc_async:wait=futex"}) {
    EXPECT_NO_THROW(BackendRegistry::instance().validate(spec)) << spec;
  }
  // And the documented validate-time negatives stay negative (value-level
  // ones like zc_async:wait=spin surface at create() and are covered by
  // the registry unit tests).
  for (const char* spec :
       {"zc:inner=(no_sl)", "zc_sharded:policy=least_loaded;steal=on",
        "record:inner=(zc:rbf=7)"}) {
    EXPECT_THROW(BackendRegistry::instance().validate(spec),
                 BackendSpecError)
        << spec;
  }
}

}  // namespace
}  // namespace zc
