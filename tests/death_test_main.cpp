// Entry point of every test binary: gtest_main's, except that death
// tests run in the "threadsafe" style, where the child re-executes the
// binary up to the dying statement. A "fast" (plain fork) child
// inherits the persistent engine pool but none of its worker threads,
// so a run dispatched there at engine threads > 1 would hang instead
// of dying.
#include <gtest/gtest.h>

int main(int argc, char** argv) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
