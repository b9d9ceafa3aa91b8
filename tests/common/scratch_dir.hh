/**
 * @file
 * A scratch directory private to one test in one process.
 *
 * ctest -j runs every discovered test case as its own process, in
 * parallel. Fixed file names under ::testing::TempDir() therefore
 * collide whenever two cases (or two parameter legs) pick the same
 * name. A ScratchDir is a fresh directory named from the running
 * test's full name and the process id, removed with everything in it
 * when the object goes out of scope, so file names inside it never
 * need to be unique.
 */

#ifndef LAORAM_TESTS_COMMON_SCRATCH_DIR_HH
#define LAORAM_TESTS_COMMON_SCRATCH_DIR_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>

namespace laoram::test {

class ScratchDir
{
  public:
    ScratchDir() : dir(makeName())
    {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }

    ~ScratchDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return dir; }

    /** Path of @p name inside the directory. */
    std::string file(const std::string &name) const
    {
        return dir + "/" + name;
    }

  private:
    /**
     * TempDir()/laoram-<test name>-<pid>-<n>. The test name is
     * sanitised and capped so a Unix socket path inside the directory
     * stays well under the 108-byte sun_path limit; the pid and the
     * per-process sequence number alone make the name unique.
     */
    static std::string
    makeName()
    {
        static std::atomic<int> sequence{0};
        std::string test = "no-test";
        if (const ::testing::TestInfo *info =
                ::testing::UnitTest::GetInstance()->current_test_info())
            test = std::string(info->test_suite_name()) + "." + info->name();
        for (char &c : test) {
            const bool keep = (c >= 'a' && c <= 'z')
                              || (c >= 'A' && c <= 'Z')
                              || (c >= '0' && c <= '9') || c == '.';
            if (!keep)
                c = '_';
        }
        constexpr std::size_t kMaxTestChars = 48;
        if (test.size() > kMaxTestChars)
            test.resize(kMaxTestChars);
        return ::testing::TempDir() + "laoram-" + test + "-"
               + std::to_string(::getpid()) + "-"
               + std::to_string(sequence++);
    }

    const std::string dir;
};

} // namespace laoram::test

#endif // LAORAM_TESTS_COMMON_SCRATCH_DIR_HH
