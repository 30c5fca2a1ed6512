package lint

import (
	"go/constant"
	"go/types"
	"testing"
)

// TestLoaderHonorsBuildConstraints loads a race/!race pair that declares the
// same constant in both files: without build-constraint filtering the
// package fails to type-check with a redeclaration.
func TestLoaderHonorsBuildConstraints(t *testing.T) {
	u := loadFixture(t, "buildtags")
	if len(u.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (the !race side)", len(u.Files))
	}
	c, ok := u.Pkg.Scope().Lookup("raceEnabled").(*types.Const)
	if !ok {
		t.Fatal("raceEnabled not declared")
	}
	if constant.BoolVal(c.Val()) {
		t.Error("raceEnabled = true, want the !race declaration")
	}
}
