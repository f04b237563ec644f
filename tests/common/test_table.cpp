#include "common/table.h"

#include <gtest/gtest.h>

namespace so {
namespace {

TEST(Table, AlignsColumns)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    const std::string s = t.str();
    EXPECT_NE(s.find("== demo =="), std::string::npos);
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, PadsShortRows)
{
    Table t;
    t.setHeader({"a", "b", "c"});
    t.addRow({"only-one"});
    EXPECT_NO_THROW({ const auto s = t.str(); (void)s; });
}

TEST(Table, NumFormatsFixedPoint)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(3.14159, 4), "3.1416");
    EXPECT_EQ(Table::num(static_cast<long long>(42)), "42");
    EXPECT_EQ(Table::num(-1.5, 1), "-1.5");
}

TEST(Table, RowsWithoutHeader)
{
    Table t;
    t.addRow({"x", "y"});
    const std::string s = t.str();
    EXPECT_NE(s.find('x'), std::string::npos);
    EXPECT_EQ(s.find("---"), std::string::npos);
}

} // namespace
} // namespace so
