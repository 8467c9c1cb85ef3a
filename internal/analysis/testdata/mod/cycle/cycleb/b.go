package cycleb

import "crowdplanner/internal/fix/cyclea"

func B() int { return cyclea.A() }
