package query

import (
	"testing"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
)

func TestNewAndFilterDefault(t *testing.T) {
	q, err := New("o=xyz", ScopeSubtree, "")
	if err != nil {
		t.Fatal(err)
	}
	if q.FilterString() != "(objectclass=*)" {
		t.Errorf("default filter = %s", q.FilterString())
	}
	if _, err := New("=bad", ScopeSubtree, ""); err == nil {
		t.Error("bad base accepted")
	}
	if _, err := New("o=xyz", ScopeSubtree, "((("); err == nil {
		t.Error("bad filter accepted")
	}
}

func TestParseScope(t *testing.T) {
	cases := map[string]Scope{
		"base": ScopeBase, "one": ScopeSingleLevel, "onelevel": ScopeSingleLevel,
		"sub": ScopeSubtree, "SUBTREE": ScopeSubtree,
	}
	for in, want := range cases {
		got, err := ParseScope(in)
		if err != nil || got != want {
			t.Errorf("ParseScope(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScope("galaxy"); err == nil {
		t.Error("bad scope accepted")
	}
	if ScopeBase.String() != "base" || ScopeSubtree.String() != "sub" || ScopeSingleLevel.String() != "one" {
		t.Error("scope String() mismatch")
	}
}

func TestInScope(t *testing.T) {
	base := "c=us,o=xyz"
	child := dn.MustParse("cn=a,c=us,o=xyz")
	grandchild := dn.MustParse("cn=b,ou=r,c=us,o=xyz")
	self := dn.MustParse(base)
	other := dn.MustParse("c=in,o=xyz")

	tests := []struct {
		scope  Scope
		target dn.DN
		want   bool
	}{
		{ScopeBase, self, true},
		{ScopeBase, child, false},
		{ScopeSingleLevel, child, true},
		{ScopeSingleLevel, self, false},
		{ScopeSingleLevel, grandchild, false},
		{ScopeSubtree, self, true},
		{ScopeSubtree, child, true},
		{ScopeSubtree, grandchild, true},
		{ScopeSubtree, other, false},
	}
	for _, tt := range tests {
		q := MustNew(base, tt.scope, "")
		if got := q.InScope(tt.target); got != tt.want {
			t.Errorf("scope %v target %s: InScope = %v, want %v", tt.scope, tt.target, got, tt.want)
		}
	}
}

func TestMatches(t *testing.T) {
	person := entry.New(dn.MustParse("cn=a,c=us,o=xyz"))
	person.Put("objectclass", "person").Put("serialNumber", "0401")
	bare := entry.New(dn.MustParse("cn=b,c=us,o=xyz"))
	bare.Put("serialNumber", "0402")
	elsewhere := entry.New(dn.MustParse("cn=c,c=in,o=xyz"))
	elsewhere.Put("objectclass", "person").Put("serialNumber", "0403")

	nilFilter := Query{Base: dn.MustParse("c=us,o=xyz"), Scope: ScopeSubtree}
	serial := MustNew("c=us,o=xyz", ScopeSubtree, "(serialNumber=04*)")
	cases := []struct {
		name string
		q    Query
		e    *entry.Entry
		want bool
	}{
		{"nil filter, objectClass present", nilFilter, person, true},
		{"nil filter means (objectclass=*)", nilFilter, bare, false},
		{"filter ignores objectClass", serial, bare, true},
		{"out of scope", serial, elsewhere, false},
		{"nil entry", serial, nil, false},
	}
	for _, c := range cases {
		if got := c.q.Matches(c.e); got != c.want {
			t.Errorf("%s: Matches = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAttrsSubsetOf(t *testing.T) {
	all := MustNew("", ScopeSubtree, "")
	star := MustNew("", ScopeSubtree, "", "*")
	some := MustNew("", ScopeSubtree, "", "cn", "mail")
	fewer := MustNew("", ScopeSubtree, "", "CN")
	other := MustNew("", ScopeSubtree, "", "sn")

	if !some.AttrsSubsetOf(all) || !some.AttrsSubsetOf(star) {
		t.Error("specific attrs must be subset of all-attrs")
	}
	if all.AttrsSubsetOf(some) {
		t.Error("all-attrs is not a subset of specific attrs")
	}
	if !fewer.AttrsSubsetOf(some) {
		t.Error("case-insensitive attr subset failed")
	}
	if other.AttrsSubsetOf(some) {
		t.Error("disjoint attrs claimed subset")
	}
	if !all.WantsAllAttrs() || !star.WantsAllAttrs() || some.WantsAllAttrs() {
		t.Error("WantsAllAttrs wrong")
	}
}

func TestNormalizeAndKey(t *testing.T) {
	a := MustNew("C=US,o=xyz", ScopeSubtree, "(&(b=2)(a=1))", "Mail", "CN")
	b := MustNew("c=us,O=XYZ", ScopeSubtree, "(&(a=1)(b=2))", "cn", "mail")
	if a.Key() != b.Key() {
		t.Errorf("equivalent queries have different keys:\n%q\n%q", a.Key(), b.Key())
	}
	c := MustNew("c=us,o=xyz", ScopeSingleLevel, "(&(a=1)(b=2))", "cn", "mail")
	if a.Key() == c.Key() {
		t.Error("different scopes share a key")
	}
}

func TestTemplate(t *testing.T) {
	q := MustNew("", ScopeSubtree, "(&(dept=2406)(div=sw))")
	if q.Template() != "(&(dept=_)(div=_))" {
		t.Errorf("Template = %s", q.Template())
	}
	empty := Query{}
	if empty.Template() != "(objectclass=*)" {
		t.Errorf("nil-filter template = %s", empty.Template())
	}
	if empty.FilterString() != "(objectclass=*)" {
		t.Errorf("nil-filter string = %s", empty.FilterString())
	}
}

func TestStringForm(t *testing.T) {
	q := MustNew("o=xyz", ScopeSubtree, "(sn=Doe)", "cn")
	s := q.String()
	for _, want := range []string{"o=xyz", "sub", "(sn=Doe)", "cn"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
