// Golden fixtures: byte-exact files under tests/data/golden that a
// fresh run must reproduce. Test binaries built with golden_main.cpp
// accept --update-golden, which rewrites every fixture they check in
// place instead of comparing; commit the diff alongside the change
// that caused it and say why the bytes moved. A missing fixture fails
// rather than auto-creating, so CI can never mint its own baseline.
#pragma once

#include <filesystem>
#include <string>

namespace dq::test {

/// Set when the binary ran with --update-golden.
extern bool g_update_golden;

/// tests/data/golden in the source tree.
inline std::filesystem::path golden_dir() { return DQ_GOLDEN_DIR; }

/// Expects `fresh` to equal fixture `name`, or rewrites the fixture
/// under --update-golden.
void expect_golden(const std::string& name, const std::string& fresh);

}  // namespace dq::test
