// Tests for the table writer and thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "util/check.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace cadapt::util {
namespace {

TEST(Table, AlignedOutput) {
  Table t({"n", "ratio"});
  t.row().cell(std::uint64_t{16}).cell(2.5, 2);
  t.row().cell(std::uint64_t{65536}).cell(10.25, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("    n  ratio"), std::string::npos) << out;
  EXPECT_NE(out.find("65536  10.25"), std::string::npos) << out;
  EXPECT_NE(out.find("   16   2.50"), std::string::npos) << out;
}

TEST(Table, RowUnderflowDetectedOnNextRow) {
  Table t({"a", "b"});
  t.row().cell(std::string("only one"));
  EXPECT_THROW(t.row(), CheckError);
}

TEST(Table, CellWithoutRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.cell(std::string("x")), CheckError);
}

TEST(Table, OverfullRowThrows) {
  Table t({"a"});
  t.row().cell(std::string("x"));
  EXPECT_THROW(t.cell(std::string("y")), CheckError);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversIndexSpace) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(500);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 10,
                            [](std::size_t i) {
                              if (i == 5) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForZeroCount) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, WaitIdleOnFreshPool) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not hang
}

TEST(ThreadPool, ThrowingTaskDoesNotKillTheProcess) {
  // The PR 2 contract: a task that throws is contained; the first
  // exception resurfaces from wait_idle() after all queued tasks ran.
  ThreadPool pool(2);
  std::atomic<int> survivors{0};
  pool.submit([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 20; ++i) pool.submit([&] { ++survivors; });
  try {
    pool.wait_idle();
    FAIL() << "expected the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task failed");
  }
  EXPECT_EQ(survivors.load(), 20);  // the failure did not starve the queue
}

TEST(ThreadPool, EveryExceptionIsReportedInSubmitOrderAndStateResets) {
  // Two workers on purpose: whatever order the failures ARRIVE in, the
  // AggregateError must list them by submit index — no error is ever
  // silently dropped (pre-PR 7 only the first survived).
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::runtime_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "expected an AggregateError";
  } catch (const AggregateError& e) {
    ASSERT_EQ(e.messages().size(), 2u);
    EXPECT_EQ(e.messages()[0], "task 0: first");
    EXPECT_EQ(e.messages()[1], "task 1: second");
    EXPECT_STREQ(e.what(),
                 "2 pool tasks failed: task 0: first; task 1: second");
  }
  // The errors were consumed: the pool is reusable and clean afterwards.
  std::atomic<int> counter{0};
  pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, SingleFailureRethrowsUnchangedNotAggregated) {
  // Exactly one failure keeps type-preserving containment: callers that
  // catch the original type must not suddenly see AggregateError.
  ThreadPool pool(2);
  pool.submit([] { throw CheckError("only one"); });
  for (int i = 0; i < 8; ++i) pool.submit([] {});
  EXPECT_THROW(pool.wait_idle(), CheckError);
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexFailure) {
  // Deterministic across pool sizes and scheduling: the LOWEST failing
  // iteration index wins, not whichever worker lost the race.
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    try {
      parallel_for(pool, 64, [](std::size_t i) {
        if (i % 7 == 3) {  // fails at 3, 10, 17, ...
          throw std::runtime_error("iter " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "iter 3") << "workers=" << workers;
    }
  }
}

TEST(ThreadPool, ExceptionTypeSurvivesThreadHop) {
  ThreadPool pool(2);
  pool.submit([] { throw CheckError("typed"); });
  EXPECT_THROW(pool.wait_idle(), CheckError);
}

}  // namespace
}  // namespace cadapt::util
