/**
 * @file
 * Unit tests for the CLI flag parser and the table renderer.
 */

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/logging.h"
#include "common/suggest.h"
#include "common/table.h"

namespace fermihedral {
namespace {

TEST(Flags, DefaultsSurviveEmptyArgv)
{
    FlagSet flags("test");
    auto *modes = flags.addInt("modes", 6, "mode count");
    auto *noise = flags.addDouble("noise", 0.01, "error rate");
    auto *fast = flags.addBool("fast", false, "skip slow parts");
    char prog[] = "prog";
    char *argv[] = {prog};
    EXPECT_TRUE(flags.parse(1, argv));
    EXPECT_EQ(*modes, 6);
    EXPECT_DOUBLE_EQ(*noise, 0.01);
    EXPECT_FALSE(*fast);
}

TEST(Flags, EqualsAndSpaceSyntax)
{
    FlagSet flags("test");
    auto *modes = flags.addInt("modes", 6, "mode count");
    auto *name = flags.addString("name", "bk", "encoding name");
    char prog[] = "prog";
    char a1[] = "--modes=12";
    char a2[] = "--name";
    char a3[] = "jw";
    char *argv[] = {prog, a1, a2, a3};
    EXPECT_TRUE(flags.parse(4, argv));
    EXPECT_EQ(*modes, 12);
    EXPECT_EQ(*name, "jw");
}

TEST(Flags, BoolByPresenceAndValue)
{
    FlagSet flags("test");
    auto *fast = flags.addBool("fast", false, "");
    auto *slow = flags.addBool("slow", true, "");
    char prog[] = "prog";
    char a1[] = "--fast";
    char a2[] = "--slow=false";
    char *argv[] = {prog, a1, a2};
    EXPECT_TRUE(flags.parse(3, argv));
    EXPECT_TRUE(*fast);
    EXPECT_FALSE(*slow);
}

TEST(Flags, HelpReturnsFalse)
{
    FlagSet flags("test tool");
    flags.addInt("modes", 6, "mode count");
    char prog[] = "prog";
    char a1[] = "--help";
    char *argv[] = {prog, a1};
    EXPECT_FALSE(flags.parse(2, argv));
    EXPECT_NE(flags.usage().find("--modes"), std::string::npos);
}

TEST(Flags, UnknownFlagIsFatal)
{
    FlagSet flags("test");
    char prog[] = "prog";
    char a1[] = "--nonsense";
    char *argv[] = {prog, a1};
    EXPECT_THROW(flags.parse(2, argv), FatalError);
}

TEST(Flags, UnknownFlagSuggestsNearestName)
{
    FlagSet flags("test");
    flags.addInt("modes", 6, "mode count");
    flags.addInt("timeout", 30, "budget");
    char prog[] = "prog";
    char a1[] = "--mdoes=4"; // transposition: distance 2
    char *argv[] = {prog, a1};
    try {
        flags.parse(2, argv);
        FAIL() << "expected FatalError";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what())
                      .find("did you mean '--modes'"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Flags, UnknownFlagFarFromEverythingGetsNoSuggestion)
{
    FlagSet flags("test");
    flags.addInt("modes", 6, "mode count");
    char prog[] = "prog";
    char a1[] = "--qqqqqqqq";
    char *argv[] = {prog, a1};
    try {
        flags.parse(2, argv);
        FAIL() << "expected FatalError";
    } catch (const FatalError &error) {
        const std::string what = error.what();
        EXPECT_EQ(what.find("did you mean"), std::string::npos);
        EXPECT_NE(what.find("try --help"), std::string::npos);
    }
}

TEST(Suggest, EditDistanceIsExactLevenshtein)
{
    EXPECT_EQ(editDistance("", ""), 0u);
    EXPECT_EQ(editDistance("abc", "abc"), 0u);
    EXPECT_EQ(editDistance("abc", ""), 3u);
    EXPECT_EQ(editDistance("", "abc"), 3u);
    EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
    EXPECT_EQ(editDistance("modes", "mdoes"), 2u);
    EXPECT_EQ(editDistance("sat-noalg", "sat-noalgo"), 1u);
}

TEST(Suggest, NearestRespectsTheDistanceCap)
{
    const std::vector<std::string> names = {"modes", "timeout",
                                            "threads"};
    EXPECT_EQ(suggestNearest("mode", names).value_or(""), "modes");
    EXPECT_EQ(suggestNearest("threds", names).value_or(""),
              "threads");
    EXPECT_FALSE(suggestNearest("zzzz", names).has_value());
    EXPECT_FALSE(suggestNearest("mo", names).has_value());
}

TEST(Table, RendersAlignedColumns)
{
    Table table({"Case", "N", "Value"});
    table.addRow({"Hubbard", "4", "90"});
    table.addRow({"SYK", "10", "55208"});
    const std::string out = table.render();
    EXPECT_NE(out.find("| Hubbard"), std::string::npos);
    EXPECT_NE(out.find("| 55208"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("+--"), std::string::npos);
}

TEST(Table, RowWidthMismatchPanics)
{
    Table table({"a", "b"});
    EXPECT_THROW(table.addRow({"1"}), PanicError);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(std::int64_t{42}), "42");
    EXPECT_EQ(Table::percent(0.2361, 2), "23.61%");
    EXPECT_EQ(Table::percent(-0.0578, 2), "-5.78%");
}

} // namespace
} // namespace fermihedral
