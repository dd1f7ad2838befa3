// Tests for trace CSV I/O round-trips and malformed-input handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "gesture/synthetic.h"
#include "trace/trace_io.h"

namespace mfhttp {
namespace {

TEST(TouchTraceIo, RoundTrip) {
  SwipeSpec spec;
  spec.start = {712.5, 1800.25};
  spec.speed_px_s = 3333;
  TouchTrace original = synthesize_swipe(spec);

  std::stringstream ss;
  write_touch_trace(ss, original);
  auto back = read_touch_trace(ss);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*back)[i].time_ms, original[i].time_ms);
    EXPECT_EQ((*back)[i].action, original[i].action);
    EXPECT_NEAR((*back)[i].pos.x, original[i].pos.x, 1e-6);
    EXPECT_NEAR((*back)[i].pos.y, original[i].pos.y, 1e-6);
  }
}

TEST(TouchTraceIo, EmptyTrace) {
  std::stringstream ss;
  write_touch_trace(ss, {});
  auto back = read_touch_trace(ss);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST(TouchTraceIo, RejectsBadAction) {
  std::stringstream ss("time_ms,action,x,y\n100,WIGGLE,1,2\n");
  EXPECT_FALSE(read_touch_trace(ss).has_value());
}

TEST(TouchTraceIo, RejectsBadNumbers) {
  std::stringstream ss("100,DOWN,abc,2\n");
  EXPECT_FALSE(read_touch_trace(ss).has_value());
}

TEST(TouchTraceIo, RejectsWrongFieldCount) {
  std::stringstream ss("100,DOWN,1\n");
  EXPECT_FALSE(read_touch_trace(ss).has_value());
}

TEST(TouchTraceIo, RejectsOutOfOrderTimestamps) {
  std::stringstream ss("100,DOWN,1,2\n50,MOVE,1,3\n");
  EXPECT_FALSE(read_touch_trace(ss).has_value());
}

TEST(TouchTraceIo, SkipsBlankLinesAndHeader) {
  std::stringstream ss("time_ms,action,x,y\n\n10,DOWN,1,2\n\n20,UP,1,2\n");
  auto back = read_touch_trace(ss);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), 2u);
}

TEST(TraceFileIo, SaveAndLoadFiles) {
  std::string touch_path = testing::TempDir() + "/mfhttp_touch.csv";

  SwipeSpec spec;
  spec.start = {10, 20};
  TouchTrace trace = synthesize_swipe(spec);
  ASSERT_TRUE(save_touch_trace(touch_path, trace));
  auto back = load_touch_trace(touch_path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), trace.size());

  std::remove(touch_path.c_str());
}

TEST(TraceFileIo, LoadMissingFileIsNullopt) {
  EXPECT_FALSE(load_touch_trace("/nonexistent/path.csv").has_value());
}

}  // namespace
}  // namespace mfhttp
